// The `ingest-churn` workload and the service ingest body it shares with
// the traced diagnose run's service probe.
//
// Load comes from this one process: one submitting thread (the caller)
// and one reading thread.  The shard count is fixed in each workload's
// definition and the store keeps the program's default fsync policy
// (group commit, 500 us window).
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <memory>
#include <numeric>
#include <thread>
#include <utility>

#include "checks.h"
#include "common/rng.h"
#include "inputs.h"
#include "pace.h"
#include "probes.h"
#include "service/fleet_service.h"
#include "spans.h"
#include "store/shard_store.h"

namespace edxbench {

const edx::trace::TraceBundle& Plan::bundle(const Arrival& arrival) {
  edx::trace::TraceBundle& content = contents[arrival.tenant][arrival.content];
  content.user = arrival.user;
  return content;
}

namespace {

using edx::service::FleetService;

/// How often the reading thread renders one tenant's report.
constexpr std::int64_t kReportPeriodNs = 5'000'000;
/// The reading thread records a span for one snapshot() call in this
/// many, so its polling does not flood the trace.
constexpr std::uint64_t kSnapshotSpanEvery = 64;
/// The saturated phase runs in this many equal drained rounds.
constexpr std::size_t kSaturatedRounds = 8;
/// Restarts per run; restart_s is the fastest.
constexpr int kRestarts = 3;
/// Threads that decode a shard's sealed segments on open (the store's
/// default, 0, would take one per core).
constexpr std::size_t kRecoveryThreads = 2;
/// Pause between the reading thread's sweeps over the tenants.
constexpr auto kReaderPause = std::chrono::microseconds(20);
/// The paced phase's latency is summarized per window of this many equal
/// parts of the phase, and the run reports the median window's p50 and
/// p90.  At 20/s and 20 s a window holds ~80 arrivals.
constexpr std::size_t kPacedWindows = 5;

edx::service::ServiceOptions service_options(const Plan& plan,
                                             const std::string& root) {
  edx::service::ServiceOptions options;
  options.num_shards = plan.shards;
  options.step1_threads = 1;
  options.analysis.num_threads = 1;
  options.store_root = root;
  options.store.recovery_threads = kRecoveryThreads;
  return options;  // store: the default FsyncPolicy::kGroup, 500 us
}

/// One paced arrival awaiting visibility: the tenant's arrival count that
/// covers it and its scheduled send offset.
struct Awaited {
  std::uint64_t covered_at{0};
  std::int64_t offset_ns{0};
};

/// The reading thread: sweeps the tenants' snapshots, timing each paced
/// arrival from its scheduled send time to the first load of an epoch
/// that covers it, and renders one tenant's report every 5 ms.
class Reader {
 public:
  Reader(const FleetService& service, const std::vector<std::string>& keys,
         std::vector<std::vector<Awaited>> awaited)
      : service_(service),
        keys_(keys),
        awaited_(std::move(awaited)),
        next_(keys.size(), 0) {
    std::size_t total = 0;
    for (const auto& list : awaited_) total += list.size();
    remaining_.store(total);
    visible_.reserve(total);
    thread_ = std::thread([this] { loop(); });
  }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;
  ~Reader() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  void start_paced(std::int64_t phase_start_ns) {
    phase_start_ns_.store(phase_start_ns, std::memory_order_release);
  }
  [[nodiscard]] std::size_t remaining() const { return remaining_.load(); }
  /// Stops and joins the thread, then rethrows what it failed with.
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    if (failure_ != nullptr) {
      std::rethrow_exception(std::exchange(failure_, nullptr));
    }
  }
  /// Valid after stop(): (scheduled send offset, visible latency in ms)
  /// of every paced arrival seen.
  [[nodiscard]] const std::vector<std::pair<std::int64_t, double>>& visible()
      const {
    return visible_;
  }

 private:
  void loop() {
    try {
      std::size_t report_turn = 0;
      std::int64_t next_report = now_ns() + kReportPeriodNs;
      while (!stop_.load()) {
        for (std::size_t t = 0; t < keys_.size(); ++t) sweep(t);
        if (now_ns() >= next_report) {
          const std::string& key = keys_[report_turn++ % keys_.size()];
          if (service_.snapshot(key) != nullptr) {
            Span span("service.report");
            (void)service_.report(key);
          }
          next_report += kReportPeriodNs;
        }
        std::this_thread::sleep_for(kReaderPause);
      }
    } catch (...) {
      failure_ = std::current_exception();
    }
  }

  void sweep(std::size_t t) {
    std::shared_ptr<const edx::service::FleetSnapshot> snapshot;
    if (++loads_ % kSnapshotSpanEvery == 0) {
      Span span("service.snapshot");
      snapshot = service_.snapshot(keys_[t]);
    } else {
      snapshot = service_.snapshot(keys_[t]);
    }
    if (snapshot == nullptr) return;
    const std::int64_t seen = now_ns();
    const std::int64_t phase_start =
        phase_start_ns_.load(std::memory_order_acquire);
    if (phase_start == 0) return;
    const std::vector<Awaited>& list = awaited_[t];
    std::size_t& next = next_[t];
    while (next < list.size() &&
           list[next].covered_at <= snapshot->image->arrivals) {
      visible_.emplace_back(
          list[next].offset_ns,
          ms_between(phase_start + list[next].offset_ns, seen));
      ++next;
      remaining_.fetch_sub(1);
    }
  }

  const FleetService& service_;
  const std::vector<std::string>& keys_;
  const std::vector<std::vector<Awaited>> awaited_;
  std::vector<std::size_t> next_;
  std::uint64_t loads_{0};
  std::vector<std::pair<std::int64_t, double>> visible_;
  std::atomic<std::int64_t> phase_start_ns_{0};
  std::atomic<std::size_t> remaining_{0};
  std::atomic<bool> stop_{false};
  std::exception_ptr failure_;
  std::thread thread_;  // last: starts after every member it reads
};

/// The median over kPacedWindows equal windows of the paced phase of
/// each window's p-th percentile of visible latency, so a burst of
/// stolen CPU that covers less than half the phase moves it little.
double windowed_percentile(
    const std::vector<std::pair<std::int64_t, double>>& visible,
    std::int64_t phase_ns, double p) {
  std::vector<std::vector<double>> windows(kPacedWindows);
  for (const auto& [offset_ns, ms] : visible) {
    const auto w = static_cast<std::size_t>(
        static_cast<double>(offset_ns) / static_cast<double>(phase_ns) *
        kPacedWindows);
    windows[std::min(w, kPacedWindows - 1)].push_back(ms);
  }
  std::vector<double> per_window;
  for (const std::vector<double>& window : windows) {
    if (!window.empty()) per_window.push_back(percentile(window, p));
  }
  return median(per_window);
}

/// Submits one arrival and books it for the checks.  A submit that
/// throws is counted as a failed operation and not booked.
void submit(FleetService& service, Plan& plan, const Arrival& arrival,
            UploadBook& book, std::vector<std::uint64_t>& count,
            Result& result) {
  const edx::trace::TraceBundle& bundle = plan.bundle(arrival);
  ++result.attempted;
  std::uint64_t id = 0;
  try {
    Span span("service.submit");
    id = service.submit(plan.keys[arrival.tenant], bundle);
  } catch (const std::exception& failure) {
    ++result.failed;
    std::cerr << "edxbench: submit failed: " << failure.what() << "\n";
    return;
  }
  book[id] = Upload{arrival.user, &bundle};
  ++count[arrival.tenant];
}

/// Each tenant's served report against the batch report over its
/// applied_log() prefix, and the benchmark's submit count against the
/// service's applied and published arrivals.  Returns the served reports.
std::vector<std::string> check_served(const FleetService& service,
                                      const Plan& plan, const UploadBook& book,
                                      const std::vector<std::uint64_t>& count,
                                      Result& result) {
  std::vector<std::string> served(plan.keys.size());
  for (std::size_t t = 0; t < plan.keys.size(); ++t) {
    const std::string& key = plan.keys[t];
    const auto snapshot = service.snapshot(key);
    served[t] = service.report(key);
    const std::string why =
        check_served_report(served[t], snapshot->image->arrivals,
                            service.applied_log(key), book);
    if (!why.empty()) result.reject(key + ": " + why);
    const edx::service::AppServiceStats row = service.app_stats(key);
    if (row.applied != count[t] || row.published_arrivals != count[t]) {
      result.reject(key + ": submitted " + std::to_string(count[t]) +
                    ", service applied " + std::to_string(row.applied) +
                    " and published " +
                    std::to_string(row.published_arrivals));
    }
  }
  return served;
}

/// The reopened service's reports and recovered arrival counts against
/// what was acknowledged and served before close().
void check_reopened(const FleetService& service, const Plan& plan,
                    const std::vector<std::uint64_t>& count,
                    const std::vector<std::string>& served,
                    const std::vector<std::string>& reopened, Result& result) {
  for (std::size_t t = 0; t < plan.keys.size(); ++t) {
    const std::string why = check_recovered(
        count[t], service.app_stats(plan.keys[t]).applied, reopened[t],
        served[t]);
    if (!why.empty()) result.reject(plan.keys[t] + ": " + why);
  }
}

}  // namespace

IngestOutcome run_service(Plan& plan, const std::string& root,
                          Result& result) {
  IngestOutcome outcome;
  const std::size_t tenants = plan.keys.size();
  UploadBook book;
  std::vector<std::uint64_t> count(tenants, 0);

  malloc_trim(0);
  const double rss_before = rss_mb();
  auto service_ptr =
      std::make_unique<FleetService>(service_options(plan, root));
  FleetService& service = *service_ptr;
  for (const std::string& key : plan.keys) service.open(key);
  for (const Arrival& arrival : plan.preload) {
    submit(service, plan, arrival, book, count, result);
  }
  service.drain();
  outcome.setup_end_ns = now_ns();
  const Pace pace(Pace::Sampling::kEveryCpu);

  // The arrival count that covers each paced arrival, per tenant.
  std::vector<std::vector<Awaited>> awaited(tenants);
  {
    std::vector<std::uint64_t> covered = count;
    for (const Arrival& arrival : plan.saturated) ++covered[arrival.tenant];
    for (std::size_t i = 0; i < plan.paced.size(); ++i) {
      const std::uint32_t t = plan.paced[i].tenant;
      awaited[t].push_back({++covered[t], plan.paced_offset_ns[i]});
    }
  }
  Reader reader(service, plan.keys, std::move(awaited));

  // Saturated: the submitter is never idle, in rounds that each end
  // when drain() returns; the phase's rate is taken from its first
  // submit to its last drain, at the reference speed.
  const std::int64_t saturated_start = now_ns();
  const std::size_t round_size =
      (plan.saturated.size() + kSaturatedRounds - 1) / kSaturatedRounds;
  for (std::size_t begin = 0; begin < plan.saturated.size();
       begin += round_size) {
    const std::size_t end = std::min(begin + round_size, plan.saturated.size());
    for (std::size_t i = begin; i < end; ++i) {
      submit(service, plan, plan.saturated[i], book, count, result);
    }
    {
      Span span("service.drain");
      service.drain();
    }
  }
  {
    const std::int64_t saturated_end = now_ns();
    const double wall_s = ms_between(saturated_start, saturated_end) / 1e3;
    const auto arrivals = static_cast<double>(plan.saturated.size());
    outcome.wall_arrivals_per_s = arrivals / wall_s;
    outcome.arrivals_per_s =
        arrivals / pace.reference_s(wall_s, saturated_start, saturated_end);
  }

  // Paced: open loop at the plan's seeded Poisson send times.
  std::vector<double> late_ms;
  late_ms.reserve(plan.paced.size());
  const std::int64_t phase_start = now_ns() + 5'000'000;
  reader.start_paced(phase_start);
  for (std::size_t i = 0; i < plan.paced.size(); ++i) {
    const std::int64_t due = phase_start + plan.paced_offset_ns[i];
    const std::int64_t wait = due - now_ns();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    late_ms.push_back(std::max(0.0, ms_between(due, now_ns())));
    submit(service, plan, plan.paced[i], book, count, result);
  }
  service.drain();
  const std::int64_t wait_limit = now_ns() + 30'000'000'000;
  while (reader.remaining() > 0 && now_ns() < wait_limit) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (reader.remaining() > 0) {
    result.reject("reading thread never saw " +
                  std::to_string(reader.remaining()) + " paced arrivals");
  }
  reader.stop();
  const std::int64_t phase_ns =
      plan.paced.empty() ? 1 : plan.paced_offset_ns.back() + 1;
  outcome.visible_ms_p50 = windowed_percentile(reader.visible(), phase_ns, 50);
  outcome.visible_ms_p90 = windowed_percentile(reader.visible(), phase_ns, 90);
  outcome.generator_late_ms_p99 = percentile(late_ms, 99);
  outcome.state_mb = rss_mb() - rss_before;

  const edx::service::ServiceStats stats = service.stats();
  const std::uint64_t acknowledged =
      std::accumulate(count.begin(), count.end(), std::uint64_t{0});
  outcome.batch_size_mean =
      stats.batches == 0 ? 1.0
                         : static_cast<double>(acknowledged) /
                               static_cast<double>(stats.batches);
  outcome.fsyncs_per_batch =
      stats.batches == 0 ? 0.0
                         : static_cast<double>(stats.store_fsyncs) /
                               static_cast<double>(stats.batches);
  const std::vector<std::string> served =
      check_served(service, plan, book, count, result);

  {
    Span span("service.close");
    service.close();
  }
  service_ptr.reset();
  outcome.disk_bytes_per_arrival = static_cast<double>(tree_bytes(root)) /
                                   static_cast<double>(acknowledged);

  // Restart: from the closed root (its size just read) to every tenant's
  // report being served by a new service on it, at the reference speed;
  // the fastest of kRestarts restarts, each checked.  The first restart
  // of a run was the slowest (by ~8%) in 5 of 6 runs whatever the host
  // did, so the fastest is the least noisy figure of the three.
  std::vector<double> restart_s;
  std::vector<double> wall_restart_s;
  for (int r = 0; r < kRestarts; ++r) {
    const std::int64_t closed = now_ns();
    std::vector<std::string> reopened(tenants);
    std::unique_ptr<FleetService> restarted;
    {
      Span span("service.recover");
      restarted = std::make_unique<FleetService>(service_options(plan, root));
    }
    for (std::size_t t = 0; t < tenants; ++t) {
      ++result.attempted;
      try {
        Span span("service.report_recovered");
        reopened[t] = restarted->report(plan.keys[t]);
      } catch (const std::exception& failure) {
        ++result.failed;
        std::cerr << "edxbench: report after restart failed: "
                  << failure.what() << "\n";
      }
    }
    const std::int64_t served_again = now_ns();
    const double wall_s = ms_between(closed, served_again) / 1e3;
    wall_restart_s.push_back(wall_s);
    restart_s.push_back(pace.reference_s(wall_s, closed, served_again));
    check_reopened(*restarted, plan, count, served, reopened, result);
    restarted->close();
  }
  outcome.restart_s = *std::min_element(restart_s.begin(), restart_s.end());
  outcome.wall_restart_s =
      *std::min_element(wall_restart_s.begin(), wall_restart_s.end());
  outcome.kernel_us = pace.median_kernel_us();

  if (tracing()) {
    // The store's share of recovery: ShardStore::open on each shard
    // directory of the closed root.
    for (std::size_t s = 0; s < plan.shards; ++s) {
      Span span("store.open");
      edx::store::ShardStore store = edx::store::ShardStore::open(
          edx::store::shard_dir(root, s), service_options(plan, root).store);
      store.close();
    }
    result.add("service.submit_us_p50", median(span_us("service.submit")),
               "us");
    result.add("service.batch_size_mean", outcome.batch_size_mean, "count");
    result.add("service.queue_peak", static_cast<double>(stats.queue_peak),
               "count");
    result.add("service.snapshot_us_p50",
               median(span_us("service.snapshot")), "us");
    result.add("service.report_us_p50", median(span_us("service.report")),
               "us");
    result.add("service.recover_ms", median(span_us("service.recover")) / 1e3,
               "ms");
    result.add("store.fsyncs_per_batch", outcome.fsyncs_per_batch, "count");
    result.add("store.open_ms", span_total_ms("store.open"), "ms");
    result.add("bench.generator_late_ms_p99", outcome.generator_late_ms_p99,
               "ms");
  }
  return outcome;
}

namespace {

// ingest-churn's definition.  Everything that shapes the load is fixed
// here; --seed only changes the simulated content and the paced phase's
// send times, users and contents.
constexpr int kApps[] = {9, 10, 11, 12};  ///< catalog ids, one tenant each
constexpr std::uint32_t kPool = 100;  ///< first-upload contents per tenant
constexpr edx::UserId kUsers = 1500;  ///< users per tenant, preloaded
constexpr double kPacedRate = 20.0;   ///< offered re-uploads per second
constexpr std::size_t kShards = 2;

Plan make_plan(const RunOptions& options) {
  Plan plan;
  plan.shards = kShards;
  // Contents [0, kPool) are first uploads; [kPool, kPool + kUsers),
  // simulated with a second seed, are the fresh traces the users'
  // saturated re-uploads carry, one per user.  Simulating them is most
  // of the set-up, so set-up time follows the CPU more than the preload's
  // fdatasyncs.
  for (int app : kApps) {
    plan.keys.push_back(tenant_key(app));
    std::vector<edx::trace::TraceBundle> contents =
        simulate_fleet(app, kPool, mix_seed(options.seed, app, 1));
    for (auto& bundle : simulate_fleet(app, static_cast<int>(kUsers),
                                       mix_seed(options.seed, app, 2))) {
      contents.push_back(std::move(bundle));
    }
    plan.contents.push_back(std::move(contents));
  }
  const auto tenants = static_cast<std::uint32_t>(plan.keys.size());

  for (edx::UserId user = 0; user < kUsers; ++user) {
    for (std::uint32_t t = 0; t < tenants; ++t) {
      plan.preload.push_back(
          {t, static_cast<std::uint32_t>(user) % kPool, user});
    }
  }
  // Saturated: every preloaded user once, in a seeded order per tenant,
  // tenants interleaved, each with its own fresh trace.
  edx::Rng rng(mix_seed(options.seed, 0, 3));
  std::vector<std::vector<edx::UserId>> order(tenants);
  for (std::vector<edx::UserId>& users : order) {
    users.resize(static_cast<std::size_t>(kUsers));
    std::iota(users.begin(), users.end(), 0);
    for (std::size_t i = users.size(); i > 1; --i) {
      std::swap(users[i - 1], users[static_cast<std::size_t>(rng.uniform_int(
                                  0, static_cast<std::int64_t>(i) - 1))]);
    }
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(kUsers); ++i) {
    for (std::uint32_t t = 0; t < tenants; ++t) {
      const edx::UserId user = order[t][i];
      plan.saturated.push_back(
          {t, kPool + static_cast<std::uint32_t>(user), user});
    }
  }
  // Paced: seeded Poisson send times, each a re-upload of a seeded user
  // of a seeded tenant with a seeded content bundle.
  const auto paced_count =
      static_cast<std::size_t>(std::llround(kPacedRate * options.seconds));
  double offset_s = 0.0;
  for (std::size_t i = 0; i < paced_count; ++i) {
    offset_s += -std::log(1.0 - rng.uniform()) / kPacedRate;
    plan.paced_offset_ns.push_back(static_cast<std::int64_t>(offset_s * 1e9));
    const auto t = static_cast<std::uint32_t>(rng.uniform_int(0, tenants - 1));
    const auto user = static_cast<edx::UserId>(rng.uniform_int(0, kUsers - 1));
    const auto content =
        static_cast<std::uint32_t>(rng.uniform_int(0, kPool + kUsers - 1));
    plan.paced.push_back({t, content, user});
  }
  return plan;
}

}  // namespace

void run_ingest(const RunOptions& options, Result& result) {
  Plan plan = make_plan(options);
  const std::string root = options.work_dir + "/store";
  const IngestOutcome outcome = run_service(plan, root, result);

  result.add("setup_s",
             ms_between(options.spawn_ns, outcome.setup_end_ns) / 1e3, "s");
  result.add("throughput_per_s", outcome.arrivals_per_s, "1/s");
  result.add("restart_s", outcome.restart_s, "s");
  result.add("disk_bytes_per_arrival", outcome.disk_bytes_per_arrival,
             "bytes");
  result.add("state_mb", outcome.state_mb, "MB");
  // The paced phase's visible latency, which follows the host's CPU
  // steal too closely to repeat as an end-to-end metric, what it
  // depends on besides the program, and the timings in wall time with
  // the host's speed: one JSON object per run, which steadiness.py
  // summarizes.
  std::cerr << "edxbench: context {\"visible_ms_p50\": "
            << outcome.visible_ms_p50 << ", \"visible_ms_p90\": "
            << outcome.visible_ms_p90 << ", \"generator_late_ms_p99\": "
            << outcome.generator_late_ms_p99 << ", \"batch_size_mean\": "
            << outcome.batch_size_mean << ", \"fsyncs_per_batch\": "
            << outcome.fsyncs_per_batch << ", \"wall_throughput_per_s\": "
            << outcome.wall_arrivals_per_s << ", \"wall_restart_s\": "
            << outcome.wall_restart_s << ", \"kernel_us\": "
            << outcome.kernel_us << "}\n";

  if (tracing()) {
    const auto batch = static_cast<std::size_t>(
        std::max(1.0, std::round(outcome.batch_size_mean)));
    run_layer_probes(plan, batch, options.work_dir + "/probe", result);
  }
}

}  // namespace edxbench
