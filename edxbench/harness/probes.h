// The arrival plan every service-facing part of the benchmark shares,
// the service ingest body, and the per-layer probes of the traced run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "trace/recorder.h"

namespace edxbench {

/// One upload: which tenant, which of its content bundles, as which user.
struct Arrival {
  std::uint32_t tenant{0};
  std::uint32_t content{0};
  edx::UserId user{0};
};

/// Seeded inputs of one service run.  Content bundles are simulated once
/// per tenant and submitted under many user ids: a user id never seen by
/// the tenant is a first-time upload, a seen one is a re-upload.
struct Plan {
  std::vector<std::string> keys;  ///< tenant keys, index = Arrival::tenant
  std::vector<std::vector<edx::trace::TraceBundle>> contents;
  std::vector<Arrival> preload;    ///< set-up, before the timed section
  std::vector<Arrival> saturated;  ///< submitted back to back
  std::vector<Arrival> paced;      ///< open loop, at paced_offset_ns
  std::vector<std::int64_t> paced_offset_ns;
  std::size_t shards{2};

  /// The content bundle of `arrival`, relabelled as its user.  Only the
  /// thread that owns the plan calls this; submit() copies the bundle.
  const edx::trace::TraceBundle& bundle(const Arrival& arrival);
};

/// What the ingest body measured (end-to-end figures and ServiceStats).
struct IngestOutcome {
  /// Saturated re-upload rate and restart time at the reference speed
  /// (pace.h), and the same in wall time.
  double arrivals_per_s{0.0};
  double wall_arrivals_per_s{0.0};
  /// Visible latency of the paced phase: the median window's p50, p90.
  double visible_ms_p50{0.0};
  double visible_ms_p90{0.0};
  /// How late the paced generator submitted, p99 over its arrivals.
  double generator_late_ms_p99{0.0};
  double restart_s{0.0};
  double wall_restart_s{0.0};
  /// The reference kernel's median time over the run, in microseconds.
  double kernel_us{0.0};
  double disk_bytes_per_arrival{0.0};
  double state_mb{0.0};
  double batch_size_mean{1.0};
  /// ServiceStats::store_fsyncs / batches.
  double fsyncs_per_batch{0.0};
  /// When the preload had drained: the end of set-up.
  std::int64_t setup_end_ns{0};
};

/// Runs `plan` through a FleetService on a fresh durable root at `root`:
/// preload and drain (set-up, whose end is setup_end_ns), the
/// saturated phase, the paced phase with one reading thread, the
/// applied-prefix checks, close(), restarts and their checks.  Every
/// submit and every report read after a restart is one operation in
/// result.attempted, and one that throws is counted in result.failed.  With
/// tracing on it also adds the service and store per-layer metrics.
IngestOutcome run_service(Plan& plan, const std::string& root,
                          Result& result);

/// The standalone layer replays of the traced run, on `plan`'s uploads:
/// trace parsing, Steps 1-5 and rendering, thread speedup, FleetAnalyzer
/// arrivals and publication at `batch_size`, and ShardStore appends and
/// flushes at `batch_size`.  Adds the per-layer metrics to `result`.
void run_layer_probes(Plan& plan, std::size_t batch_size,
                      const std::string& dir, Result& result);

}  // namespace edxbench
