// The traced run's standalone layer replays.  Each times public calls of
// one module on the workload's own uploads, from the benchmark's side of
// the API, under spans named after the module.
#include <filesystem>
#include <optional>
#include <unordered_set>

#include "common/thread_pool.h"
#include "core/fleet_analyzer.h"
#include "core/pipeline.h"
#include "core/report_io.h"
#include "probes.h"
#include "spans.h"
#include "store/shard_store.h"

namespace edxbench {
namespace {

namespace core = edx::core;
using edx::trace::TraceBundle;

/// Threads of the Step 1-5 replay and the base of core.thread_speedup
/// (the diagnose workload's analysis thread count).
constexpr std::size_t kProbeThreads = 2;
/// Slots per tenant the Step 1-5 replay analyses.
constexpr std::size_t kCoreSlots = 500;
/// Re-uploads per tenant a plan without any gets replayed with.
constexpr std::size_t kSyntheticReuploads = 200;
/// Records the store replay appends.
constexpr std::size_t kStoreRecords = 4000;

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Every arrival of the plan in submission order.
std::vector<Arrival> all_arrivals(const Plan& plan) {
  std::vector<Arrival> all = plan.preload;
  all.insert(all.end(), plan.saturated.begin(), plan.saturated.end());
  all.insert(all.end(), plan.paced.begin(), plan.paced.end());
  return all;
}

/// Each tenant's final fleet (latest upload per user, first-arrival
/// order), at most kCoreSlots users.
std::vector<std::vector<TraceBundle>> final_fleets(Plan& plan) {
  std::vector<std::vector<TraceBundle>> fleets(plan.keys.size());
  std::vector<std::unordered_map<edx::UserId, std::size_t>> slot_of(
      plan.keys.size());
  for (const Arrival& arrival : all_arrivals(plan)) {
    auto& fleet = fleets[arrival.tenant];
    const auto [slot, inserted] =
        slot_of[arrival.tenant].emplace(arrival.user, fleet.size());
    if (inserted) {
      if (fleet.size() == kCoreSlots) {
        slot_of[arrival.tenant].erase(slot);
        continue;
      }
      fleet.emplace_back();
    }
    fleet[slot->second] = plan.bundle(arrival);
  }
  return fleets;
}

void probe_trace_core(Plan& plan, Result& result) {
  const std::vector<std::vector<TraceBundle>> fleets = final_fleets(plan);
  std::vector<std::vector<std::string>> texts(fleets.size());
  for (std::size_t t = 0; t < fleets.size(); ++t) {
    for (const TraceBundle& bundle : fleets[t]) {
      texts[t].push_back(bundle.to_text());
    }
  }
  edx::common::ThreadPool pool(kProbeThreads);
  const core::AnalysisConfig config;
  for (std::size_t t = 0; t < fleets.size(); ++t) {
    std::vector<TraceBundle> parsed;
    {
      Span span("trace.from_text");
      for (const std::string& text : texts[t]) {
        parsed.push_back(TraceBundle::from_text(text));
      }
    }
    std::vector<core::AnalyzedTrace> traces;
    {
      Span span("core.step1");
      traces = core::estimate_event_power(parsed, &pool);
    }
    core::EventRanking ranking;
    {
      Span span("core.step2");
      ranking = core::EventRanking::build(traces, &pool);
    }
    {
      Span span("core.step3");
      core::normalize_events(traces, ranking, config.normalization, &pool);
    }
    {
      Span span("core.step4");
      core::detect_all(traces, config.detection, &pool);
    }
    core::DiagnosisReport report;
    {
      Span span("core.step5");
      report = core::report_problematic_events(traces, config.reporting);
    }
    {
      Span span("core.report_to_text");
      core::ReportRenderOptions render;
      render.developer_reported_fraction =
          config.reporting.developer_reported_fraction;
      (void)core::report_to_text(report, nullptr, render);
    }
  }
  result.add("trace.parse_ms", span_total_ms("trace.from_text"), "ms");
  result.add("core.step1_ms", span_total_ms("core.step1"), "ms");
  result.add("core.step2_ms", span_total_ms("core.step2"), "ms");
  result.add("core.step3_ms", span_total_ms("core.step3"), "ms");
  result.add("core.step4_ms", span_total_ms("core.step4"), "ms");
  result.add("core.step5_ms", span_total_ms("core.step5"), "ms");
  result.add("core.render_ms", span_total_ms("core.report_to_text"), "ms");

  // ManifestationAnalyzer::run over every fleet at 1 thread and at
  // kProbeThreads, alternated three times; the ratio of the medians.
  std::vector<double> one;
  std::vector<double> many;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t threads : {std::size_t{1}, kProbeThreads}) {
      core::AnalysisConfig run_config;
      run_config.num_threads = threads;
      const core::ManifestationAnalyzer analyzer(run_config);
      const std::int64_t start = now_ns();
      {
        Span span(threads == 1 ? "core.run_1_thread" : "core.run_n_threads");
        for (const auto& fleet : fleets) (void)analyzer.run(fleet);
      }
      (threads == 1 ? one : many).push_back(ms_between(start, now_ns()));
    }
  }
  result.add("core.thread_speedup", median(one) / median(many), "x");
}

void probe_fleet(Plan& plan, std::size_t batch_size, Result& result) {
  std::vector<std::vector<Arrival>> per_tenant(plan.keys.size());
  for (const Arrival& arrival : all_arrivals(plan)) {
    per_tenant[arrival.tenant].push_back(arrival);
  }
  core::AnalysisConfig config;
  config.num_threads = 1;  // the service's per-tenant analyzers
  for (std::size_t t = 0; t < per_tenant.size(); ++t) {
    std::vector<Arrival>& arrivals = per_tenant[t];
    std::unordered_set<edx::UserId> seen;
    bool reuploads = false;
    for (const Arrival& arrival : arrivals) {
      reuploads |= !seen.insert(arrival.user).second;
    }
    if (!reuploads) {
      // A plan of first-time uploads only: replay re-uploads of its first
      // users with another content bundle.
      const auto pool = static_cast<std::uint32_t>(plan.contents[t].size());
      const std::size_t users = std::min(arrivals.size(), kSyntheticReuploads);
      for (std::size_t i = 0; i < users; ++i) {
        Arrival again = arrivals[i];
        again.content = (again.content + 1) % pool;
        arrivals.push_back(again);
      }
    }
    core::FleetAnalyzer analyzer(config);
    seen.clear();
    std::size_t pending = 0;
    for (const Arrival& arrival : arrivals) {
      const TraceBundle& bundle = plan.bundle(arrival);
      if (seen.insert(arrival.user).second) {
        Span span("core.fleet.add_new");
        analyzer.add_bundle(bundle);
      } else {
        Span span("core.fleet.add_reupload");
        analyzer.add_bundle(bundle);
      }
      if (++pending == batch_size) {
        Span span("core.fleet.publish");
        (void)analyzer.publish(true);
        pending = 0;
      }
    }
  }
  result.add("core.fleet.add_new_us", mean(span_us("core.fleet.add_new")),
             "us");
  result.add("core.fleet.add_reupload_us",
             mean(span_us("core.fleet.add_reupload")), "us");
  result.add("core.fleet.publish_us", mean(span_us("core.fleet.publish")),
             "us");
}

void probe_store(Plan& plan, std::size_t batch_size, const std::string& dir,
                 Result& result) {
  edx::store::ShardStore store = edx::store::ShardStore::open(dir);
  std::vector<edx::store::TenantId> ids;
  for (const std::string& key : plan.keys) {
    ids.push_back(store.ensure_tenant(key));
  }
  std::vector<Arrival> arrivals = all_arrivals(plan);
  if (arrivals.size() > kStoreRecords) arrivals.resize(kStoreRecords);
  std::size_t pending = 0;
  for (const Arrival& arrival : arrivals) {
    const TraceBundle& bundle = plan.bundle(arrival);
    {
      Span span("store.append_async");
      (void)store.append_async(ids[arrival.tenant], bundle);
    }
    if (++pending == batch_size) {
      Span span("store.flush");
      store.flush();
      pending = 0;
    }
  }
  store.flush();
  store.close();
  result.add("store.append_us", mean(span_us("store.append_async")), "us");
  result.add("store.flush_ms", mean(span_us("store.flush")) / 1e3, "ms");
}

}  // namespace

void run_layer_probes(Plan& plan, std::size_t batch_size,
                      const std::string& dir, Result& result) {
  probe_trace_core(plan, result);
  probe_fleet(plan, batch_size, result);
  std::filesystem::create_directories(dir);
  probe_store(plan, batch_size, dir + "/store", result);
}

}  // namespace edxbench
