// edxbench — runs one workload and prints one JSON result line:
//
//   edxbench --workload diagnose|ingest-churn --seed N
//            --seconds S --trace 0|1 --work-dir DIR --results-dir DIR
//            [--spawn-ns T]
//
// --trace 0 runs the workload's body with tracing off and prints the
// end-to-end metrics.  --trace 1 runs the body twice for half of S each,
// untraced and then traced, replays each layer standalone, writes every span to
// <results-dir>/trace-<workload>.jsonl and prints the per-layer metrics,
// each layer's self time, and the tracing overhead (how much slower the
// traced body's throughput was).  run.py builds this binary and calls
// it; the last line of standard output is the result.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>

#include "bench.h"
#include "spans.h"

namespace edxbench {
namespace {

const std::vector<std::string> kEndToEnd = {
    "setup_s",   "throughput_per_s",       "restart_s",
    "disk_bytes_per_arrival", "state_mb",
};

const std::vector<std::string> kPerLayer = {
    "trace.parse_ms",
    "core.step1_ms",
    "core.step2_ms",
    "core.step3_ms",
    "core.step4_ms",
    "core.step5_ms",
    "core.render_ms",
    "core.thread_speedup",
    "core.fleet.add_new_us",
    "core.fleet.add_reupload_us",
    "core.fleet.publish_us",
    "store.fsyncs_per_batch",
    "store.append_us",
    "store.flush_ms",
    "store.open_ms",
    "service.recover_ms",
    "service.submit_us_p50",
    "service.batch_size_mean",
    "service.queue_peak",
    "service.snapshot_us_p50",
    "service.report_us_p50",
    "self.trace_ms",
    "self.core_ms",
    "self.store_ms",
    "self.service_ms",
    "bench.generator_late_ms_p99",
    "bench.tracing_overhead_pct",
};

RunOptions parse_args(int argc, char** argv) {
  RunOptions options;
  options.spawn_ns = now_ns();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stoi(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--results-dir") {
      options.results_dir = value;
    } else if (flag == "--spawn-ns") {
      options.spawn_ns = std::stoll(value);
    } else {
      throw std::invalid_argument("edxbench: unknown flag " + flag);
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || options.work_dir.empty() ||
      options.seconds < 1) {
    throw std::invalid_argument(
        "usage: edxbench --workload NAME --seed N --seconds S --trace 0|1 "
        "--work-dir DIR --results-dir DIR [--spawn-ns T]");
  }
  return options;
}

void run_body(const RunOptions& options, Result& result) {
  std::filesystem::create_directories(options.work_dir);
  if (options.workload == "diagnose") {
    run_diagnose(options, result);
  } else if (options.workload == "ingest-churn") {
    run_ingest(options, result);
  } else {
    throw std::invalid_argument("edxbench: unknown workload " +
                                options.workload);
  }
}

std::string number(double value) {
  char buffer[64];
  const auto [end, error] =
      std::to_chars(buffer, buffer + sizeof buffer, value);
  return error == std::errc() ? std::string(buffer, end) : "0";
}

void print_result(const Result& result, const std::vector<std::string>& names) {
  std::string line = std::string("{\"correct\": ") +
                     (result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Result::Metric* metric = nullptr;
    for (const Result::Metric& candidate : result.metrics) {
      if (candidate.name == names[i]) metric = &candidate;
    }
    if (metric == nullptr) {
      throw std::logic_error("edxbench: metric " + names[i] + " not measured");
    }
    line += (i == 0 ? "\"" : ", \"") + metric->name + "\": {\"value\": " +
            number(metric->value) + ", \"unit\": \"" + metric->unit + "\"}";
  }
  line += "}}";
  for (const std::string& why : result.errors) {
    std::cerr << "edxbench: check failed: " << why << "\n";
  }
  std::cout << line << std::endl;
}

int run(int argc, char** argv) {
  const RunOptions options = parse_args(argc, argv);
  if (!options.trace) {
    Result result;
    run_body(options, result);
    for (const Result::Metric& metric : result.metrics) {
      if (!std::isfinite(metric.value) || metric.value <= 0.0) {
        result.reject(metric.name + " measured " + number(metric.value));
      }
    }
    print_result(result, kEndToEnd);
    return 0;
  }

  // Both bodies get half of --seconds, so that the traced run, which
  // also replays every layer, ends in about the time an untraced one
  // takes twice over.
  RunOptions plain = options;
  plain.seconds = std::max(1, (options.seconds + 1) / 2);
  plain.trace = false;
  plain.work_dir += "/untraced";
  Result untraced;
  run_body(plain, untraced);
  std::filesystem::remove_all(plain.work_dir);

  RunOptions traced_options = plain;
  traced_options.trace = true;
  traced_options.work_dir = options.work_dir + "/traced";
  Result traced;
  set_tracing(true);
  run_body(traced_options, traced);
  set_tracing(false);

  const std::map<std::string, double> self_ms = layer_self_ms();
  for (const char* layer : {"trace", "core", "store", "service"}) {
    const auto found = self_ms.find(layer);
    traced.add(std::string("self.") + layer + "_ms",
               found == self_ms.end() ? 0.0 : found->second, "ms");
  }
  traced.add("bench.tracing_overhead_pct",
             (untraced.value("throughput_per_s") /
                  traced.value("throughput_per_s") -
              1.0) * 100.0,
             "%");
  if (!options.results_dir.empty()) {
    std::filesystem::create_directories(options.results_dir);
    write_spans(options.results_dir + "/trace-" + options.workload + ".jsonl");
  }
  std::cerr << "edxbench: traced run recorded " << span_count()
            << " spans; untraced throughput "
            << untraced.value("throughput_per_s") << "/s, traced "
            << traced.value("throughput_per_s") << "/s\n";

  Result combined = traced;
  combined.correct = untraced.correct && traced.correct;
  combined.attempted = untraced.attempted + traced.attempted;
  combined.failed = untraced.failed + traced.failed;
  combined.errors.insert(combined.errors.end(), untraced.errors.begin(),
                         untraced.errors.end());
  print_result(combined, kPerLayer);
  return 0;
}

}  // namespace
}  // namespace edxbench

int main(int argc, char** argv) {
  try {
    return edxbench::run(argc, argv);
  } catch (const std::exception& failure) {
    std::cerr << failure.what() << "\n";
    return 1;
  }
}
