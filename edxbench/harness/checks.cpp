#include "checks.h"

#include <stdexcept>

#include "android/event.h"
#include "core/pipeline.h"
#include "core/report_io.h"

namespace edxbench {

namespace core = edx::core;
namespace trace = edx::trace;

Diagnosis diagnose_two_pass(std::span<const trace::TraceBundle> bundles,
                            std::size_t threads) {
  core::AnalysisConfig config;
  config.num_threads = threads;
  const core::AnalysisResult first = core::ManifestationAnalyzer(config).run(
      bundles);
  const core::DiagnosisReport& probe = first.report;
  config.reporting.developer_reported_fraction =
      probe.total_traces == 0
          ? 0.0
          : static_cast<double>(probe.traces_with_manifestation) /
                static_cast<double>(probe.total_traces);
  Diagnosis diagnosis;
  diagnosis.fraction = config.reporting.developer_reported_fraction;
  diagnosis.report = core::ManifestationAnalyzer(config).run(bundles).report;
  return diagnosis;
}

std::string render_text(const core::DiagnosisReport& report, double fraction,
                        const core::CodeMap* code_map,
                        const std::string& app_name) {
  core::ReportRenderOptions render;
  render.developer_reported_fraction = fraction;
  render.app_name = app_name;
  return core::report_to_text(report, code_map, render);
}

std::string check_names_component(const core::DiagnosisReport& report,
                                  const std::string& component_class) {
  for (const edx::EventName& event : report.diagnosis_events) {
    if (edx::android::split_event_name(event).class_name == component_class) {
      return "";
    }
  }
  return "diagnosis set (" + std::to_string(report.diagnosis_events.size()) +
         " events) names no callback of " + component_class;
}

std::vector<trace::TraceBundle> fleet_after(
    std::span<const std::uint64_t> applied, const UploadBook& book) {
  std::vector<trace::TraceBundle> fleet;
  std::unordered_map<edx::UserId, std::size_t> slot_of;
  for (std::uint64_t id : applied) {
    const auto found = book.find(id);
    if (found == book.end()) {
      throw std::runtime_error("applied_log holds submission " +
                               std::to_string(id) +
                               " that the benchmark never made");
    }
    const Upload& upload = found->second;
    const auto [slot, inserted] = slot_of.emplace(upload.user, fleet.size());
    if (inserted) fleet.emplace_back();
    trace::TraceBundle& bundle = fleet[slot->second];
    bundle = *upload.content;
    bundle.user = upload.user;
  }
  return fleet;
}

std::string batch_service_report(std::span<const trace::TraceBundle> fleet) {
  const Diagnosis diagnosis = diagnose_two_pass(fleet, 1);
  return render_text(diagnosis.report, diagnosis.fraction, nullptr, "");
}

std::string check_served_report(const std::string& served,
                                std::uint64_t served_arrivals,
                                std::span<const std::uint64_t> applied,
                                const UploadBook& book) {
  if (served_arrivals != applied.size()) {
    return "served snapshot covers " + std::to_string(served_arrivals) +
           " arrivals, applied_log holds " + std::to_string(applied.size());
  }
  const std::vector<trace::TraceBundle> fleet = fleet_after(applied, book);
  if (served != batch_service_report(fleet)) {
    return "served report differs from the batch report over the " +
           std::to_string(applied.size()) + "-arrival applied prefix";
  }
  return "";
}

std::string check_recovered(std::uint64_t acknowledged,
                            std::uint64_t recovered_arrivals,
                            const std::string& recovered_report,
                            const std::string& report_before_close) {
  if (recovered_arrivals != acknowledged) {
    return "reopened service recovered " + std::to_string(recovered_arrivals) +
           " of " + std::to_string(acknowledged) + " acknowledged arrivals";
  }
  if (recovered_report != report_before_close) {
    return "reopened service serves a different report";
  }
  return "";
}

}  // namespace edxbench
