#!/usr/bin/env python3
"""Runs each workload N times in fresh processes and prints each metric's
median and quartiles against its bound in BENCHMARK.json.

Usage, from the repository root:

    python3 edxbench/steadiness.py --runs 10
    python3 edxbench/steadiness.py --runs 5 --workloads ingest-churn --sets 2

Run i of a set uses seed base + i (set s starts at base + 1000 s).  The
spread of a metric is (Q3 - Q1) / median over a set's runs, with the
quartiles of Python's statistics.quantiles(values, n=4).  A set passes
when every end-to-end spread except setup_s's is within the metric's
bound; with --sets 2 the two sets' medians must also differ by less than
the bound (either way, as a share of the first), and the share of failed
operations must be the same.  Every run prints an `edxbench: context`
line on stderr (both workloads: the timings in wall time and the
reference kernel's median time; ingest-churn also the paced phase's
visible latency p50 and p90, how late the paced generator ran, the mean
batch size, fsyncs per batch), and its figures' medians and spreads are
printed per set too.
Every run's result and context go to .bench_results/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CONTEXT = "edxbench: context "


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed with exit code %d"
                         % (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    for line in done.stderr.splitlines():
        if line.startswith(CONTEXT):
            result["context"] = json.loads(line[len(CONTEXT):])
    return result


def spread_of(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def summarize(results, metric):
    return spread_of([r["metrics"][metric["name"]]["value"] for r in results])


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share
    (negative when it is better)."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    metrics = spec["end_to_end"]
    record = {}
    steady = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            base = args.seed_base + 1000 * s
            results = []
            for i in range(args.runs):
                results.append(run_once(workload, base + i, args.seconds, 0))
                print("%s set %d run %d/%d done" % (workload, s + 1, i + 1,
                                                    args.runs),
                      file=sys.stderr)
            sets.append(results)
        record[workload] = sets
        print("\n%s (%d runs per set)" % (workload, args.runs))
        print("  %-24s %14s %14s %14s %8s %7s %s"
              % ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for metric in metrics:
            summaries = [summarize(results, metric) for results in sets]
            for s, summary in enumerate(summaries):
                ok = (metric["name"] == "setup_s"
                      or summary["spread"] <= metric["bound"])
                verdict = "ok" if ok else "SPREAD"
                if s == 1:
                    drift = worse_by(summaries[0]["median"], summary["median"],
                                     metric["better"])
                    if abs(drift) >= metric["bound"]:
                        ok = False
                        verdict = "DRIFT"
                    verdict += " (worse by %+.3f)" % drift
                steady &= ok
                print("  %-24s %14.6g %14.6g %14.6g %8.4f %7.3g %s"
                      % (metric["name"] + ("" if s == 0 else " #2"),
                         summary["median"], summary["q1"], summary["q3"],
                         summary["spread"], metric["bound"], verdict))
        for s, results in enumerate(sets):
            context = [r["context"] for r in results if "context" in r]
            for key in context[0] if len(context) > 1 else []:
                summary = spread_of([c[key] for c in context])
                print("  context %-24s median %10.4g spread %7.4f (set %d)"
                      % (key, summary["median"], summary["spread"], s + 1))
        shares = {round(r["failed"] / r["attempted"], 12)
                  for results in sets for r in results}
        print("  failed share of attempted: %s" % sorted(shares))
        steady &= len(shares) == 1

    os.makedirs(os.path.join(ROOT, ".bench_results"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_results", "steadiness.json"),
              "w") as out:
        json.dump(record, out, indent=1)
    print("\n" + ("steady" if steady else "NOT steady"))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
