#!/usr/bin/env python3
"""Builds and runs one edxbench workload; the last stdout line is the result.

Usage, from the repository root:

    python3 edxbench/run.py --workload diagnose --seed 1 --seconds 10 --trace 0
    python3 edxbench/run.py --selftest

The first run configures and builds the benchmark (the EnergyDx libraries
from src/ plus edxbench/harness) into .bench_build/edxbench; later runs
only let the build check that it is up to date.  Store roots and upload
files go to a per-run directory under .bench_work, removed at the end;
traced runs write their spans to .bench_results/trace-<workload>.jsonl.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  Exit codes: 0 ok, 2 no EnergyDx sources next to the
benchmark, 3 build failed, 4 the run failed or timed out, 5 the result
does not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "edxbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
RUN_TIMEOUT_S = 170
WORKLOADS = ("diagnose", "ingest-churn")


def fail(code, message):
    print("edxbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "no EnergyDx sources at " + os.path.join(ROOT, "src"))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        step = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail(3, "cmake configure failed")
    step = ["cmake", "--build", BUILD_DIR, "-j", "4"]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail(3, "build failed")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def run_child(argv):
    """Runs argv to completion, stopping it at the timeout; returns
    (exit code, stdout)."""
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(4, "run exceeded %d s" % RUN_TIMEOUT_S)
    return child.returncode, out


def selftest():
    work = os.path.join(WORK_DIR, "selftest-%d" % os.getpid())
    try:
        code, out = run_child(
            [os.path.join(BUILD_DIR, "edxbench_selftest"), work])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(out)
    sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="show that each correctness check rejects a "
                             "wrong output")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.selftest:
        selftest()

    work = os.path.join(WORK_DIR, "%s-%d-%d" % (args.workload, args.seed,
                                                os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    argv = [os.path.join(BUILD_DIR, "edxbench"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", work, "--results-dir", RESULTS_DIR,
            "--spawn-ns", str(time.monotonic_ns())]
    try:
        code, out = run_child(argv)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail(4, "run failed with exit code %d" % code)
    result = json.loads(lines[-1])
    declared = declared_metrics(args.trace)
    measured = {name: m["unit"] for name, m in result["metrics"].items()}
    if measured != declared:
        fail(5, "metrics %s do not match BENCHMARK.json %s"
             % (sorted(measured.items()), sorted(declared.items())))
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
