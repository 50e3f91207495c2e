// Correctness checks: every output the benchmark times is compared with
// a computation made apart from the code path that produced it, or with
// a property the method must have.
//
//   diagnose   each app's diagnosis set names a callback of the injected
//              bug's component (the simulator's ground truth); the
//              rendered report is the same at 1 thread and at the
//              workload's thread count; the upload text re-serializes
//              byte for byte after parsing;
//   ingest     each tenant's served report equals a single-threaded batch
//              ManifestationAnalyzer run (two passes, self-estimated
//              fraction) over the tenant's applied_log() prefix, and the
//              served arrival count equals the prefix length;
//   restart    a reopened service serves the same report and recovers
//              every acknowledged arrival.
//
// Each check returns an empty string when it holds and the reason when
// it does not; selftest.cpp shows that each one rejects a wrong output.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/code_map.h"
#include "core/reporting.h"
#include "trace/recorder.h"

namespace edxbench {

/// The developer-facing diagnosis `energydx analyze` makes when no
/// fraction is given: a first pass, the self-estimated impacted fraction
/// (traces with a manifestation / all traces), and a second pass with it.
struct Diagnosis {
  edx::core::DiagnosisReport report;
  double fraction{0.0};
};
Diagnosis diagnose_two_pass(std::span<const edx::trace::TraceBundle> bundles,
                            std::size_t threads);

/// report_to_text with the default 10 events and the given fraction.
std::string render_text(const edx::core::DiagnosisReport& report,
                        double fraction, const edx::core::CodeMap* code_map,
                        const std::string& app_name);

/// Empty when some diagnosis event is a callback of `component_class`.
std::string check_names_component(const edx::core::DiagnosisReport& report,
                                  const std::string& component_class);

/// One acknowledged upload: the user it was submitted as and its content
/// (the content's own `user` field is ignored).
struct Upload {
  edx::UserId user{0};
  const edx::trace::TraceBundle* content{nullptr};
};
/// Submission id -> upload, for every submit the benchmark made.
using UploadBook = std::unordered_map<std::uint64_t, Upload>;

/// The fleet a batch run sees after `applied` in order: one slot per
/// user in first-arrival order, holding that user's latest upload.
/// Throws std::runtime_error for an id the book does not hold.
std::vector<edx::trace::TraceBundle> fleet_after(
    std::span<const std::uint64_t> applied, const UploadBook& book);

/// The text FleetService::report() must serve for `fleet`: the two-pass
/// batch diagnosis at 1 thread, rendered without a code map or name.
std::string batch_service_report(
    std::span<const edx::trace::TraceBundle> fleet);

/// Empty when `served` (a report() text covering `served_arrivals`
/// arrivals) equals the batch report over the whole `applied` prefix.
std::string check_served_report(const std::string& served,
                                std::uint64_t served_arrivals,
                                std::span<const std::uint64_t> applied,
                                const UploadBook& book);

/// Empty when a reopened service recovered every acknowledged arrival
/// and serves the report the service served before close().
std::string check_recovered(std::uint64_t acknowledged,
                            std::uint64_t recovered_arrivals,
                            const std::string& recovered_report,
                            const std::string& report_before_close);

}  // namespace edxbench
