// edxbench — the end-to-end benchmark of the EnergyDx diagnosis server.
//
// One binary runs one workload in one process and prints one JSON result
// line (see main.cpp).  The workloads drive the program only through its
// public API:
//
//   diagnose     the developer's `energydx analyze` path over the 40
//                Table III catalog apps: TraceBundle::from_text, two
//                ManifestationAnalyzer passes, report_to_text;
//   ingest-churn a few large fleets, preloaded into a FleetService on a
//                durable partitioned ShardStore root, whose users all
//                re-upload; then a paced open-loop phase, close() and
//                restarts.
//
// Every output is checked against a computation made apart from the
// program (checks.h).  With --trace 1 the run also records spans around
// every public call (spans.h) and replays each layer standalone
// (probes.cpp) to print the per-layer metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace edxbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the monotonic clock (CLOCK_MONOTONIC, the same clock
/// Python's time.monotonic_ns reads, so run.py can pass its spawn time).
std::int64_t now_ns();
inline double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/// Command-line options of one run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed{1};
  int seconds{10};
  bool trace{false};
  /// Scratch directory for store roots and upload files (created and
  /// removed by run.py).
  std::string work_dir;
  /// Where the traced run writes its span file.
  std::string results_dir;
  /// Monotonic time at which the process was spawned (0 = main's start).
  std::int64_t spawn_ns{0};
};

/// What one run reports.  `metrics` keeps insertion order.
struct Result {
  struct Metric {
    std::string name;
    double value{0.0};
    std::string unit;
  };
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;
  /// Why `correct` is false (printed to stderr).
  std::vector<std::string> errors;

  void add(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check.
  void reject(const std::string& why);
  /// The metric's value; throws when absent.
  [[nodiscard]] double value(const std::string& name) const;
};

// --- small statistics and process probes (stats.cpp) -----------------

double median(std::vector<double> values);
/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty input.
double percentile(std::vector<double> values, double p);
/// Resident set size of this process in MB (from /proc/self/statm).
double rss_mb();
/// Total bytes of the regular files under `path`.
std::uint64_t tree_bytes(const std::string& path);

// --- workloads -------------------------------------------------------

/// Runs the named workload's untraced body and fills the end-to-end
/// metrics.  With options.trace the body also records spans.
void run_diagnose(const RunOptions& options, Result& result);
void run_ingest(const RunOptions& options, Result& result);  // ingest-churn

}  // namespace edxbench
