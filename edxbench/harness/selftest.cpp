// Shows that each correctness check of checks.h rejects a wrong output:
//
//   1. a served report built with one arrival dropped from the applied
//      prefix;
//   2. a diagnosis set missing the injected bug's component;
//   3. a reopened service that lost an acknowledged record (the shard
//      WAL's last record torn off on disk).
//
// Each case first shows the check accepting the right output, so a check
// that rejects everything fails too.  Usage: edxbench_selftest DIR (a
// scratch directory it may fill).  Exits 0 when every case holds.
#include <algorithm>
#include <filesystem>
#include <iostream>

#include "checks.h"
#include "inputs.h"
#include "service/fleet_service.h"

namespace {

namespace fs = std::filesystem;
using edx::service::FleetService;
using edx::trace::TraceBundle;
using namespace edxbench;

constexpr int kApp = 18;  // Tinfoil, the paper's walkthrough case
constexpr int kUsers = 30;

int failures = 0;

void expect(bool holds, const std::string& what) {
  std::cout << (holds ? "ok   " : "FAIL ") << what << "\n";
  if (!holds) ++failures;
}

edx::service::ServiceOptions options_for(const std::string& root) {
  edx::service::ServiceOptions options;
  options.num_shards = 1;
  options.store_root = root;
  return options;
}

/// Submits `count` of `fleet` to a fresh service, books them, drains.
std::vector<std::uint64_t> submit_all(FleetService& service,
                                      const std::vector<TraceBundle>& fleet,
                                      std::size_t count, UploadBook& book) {
  std::vector<std::uint64_t> ids;
  for (std::size_t u = 0; u < count; ++u) {
    ids.push_back(service.submit(tenant_key(kApp), fleet[u]));
    book[ids.back()] = Upload{fleet[u].user, &fleet[u]};
  }
  service.drain();
  return ids;
}

void dropped_arrival(const std::vector<TraceBundle>& fleet,
                     const std::string& dir) {
  const std::string key = tenant_key(kApp);
  UploadBook book;
  FleetService full(options_for(dir + "/full"));
  submit_all(full, fleet, fleet.size(), book);
  const std::vector<std::uint64_t> applied = full.applied_log(key);
  expect(check_served_report(full.report(key),
                             full.snapshot(key)->image->arrivals, applied,
                             book)
             .empty(),
         "served report over the whole applied prefix is accepted");

  // The same uploads with the last one dropped.
  UploadBook short_book;
  FleetService short_service(options_for(dir + "/short"));
  submit_all(short_service, fleet, fleet.size() - 1, short_book);
  const std::string short_report = short_service.report(key);
  expect(!check_served_report(short_report, applied.size(), applied, book)
              .empty(),
         "report missing one applied arrival is rejected (same count)");
  expect(!check_served_report(short_report,
                              short_service.snapshot(key)->image->arrivals,
                              applied, book)
              .empty(),
         "report missing one applied arrival is rejected (its own count)");
  full.close();
  short_service.close();
}

void missing_component(const std::vector<TraceBundle>& fleet) {
  const std::string component = catalog_app(kApp).bug.component_class;
  Diagnosis diagnosis = diagnose_two_pass(fleet, 1);
  expect(check_names_component(diagnosis.report, component).empty(),
         "diagnosis naming the bug's component is accepted");
  std::vector<std::string>& events = diagnosis.report.diagnosis_events;
  std::erase_if(events, [&](const std::string& event) {
    return check_names_component(edx::core::DiagnosisReport{
                                     {}, {event}, 0, 0},
                                 component)
        .empty();
  });
  expect(!check_names_component(diagnosis.report, component).empty(),
         "diagnosis set without the bug's component is rejected");
}

void lost_record(const std::vector<TraceBundle>& fleet,
                 const std::string& dir) {
  const std::string key = tenant_key(kApp);
  const std::string root = dir + "/durable";
  UploadBook book;
  std::string served;
  {
    FleetService service(options_for(root));
    submit_all(service, fleet, fleet.size(), book);
    served = service.report(key);
    service.close();
  }
  {
    FleetService reopened(options_for(root));
    expect(check_recovered(fleet.size(), reopened.app_stats(key).applied,
                           reopened.report(key), served)
               .empty(),
           "reopened service with every record is accepted");
    reopened.close();
  }
  // Tear the last record off the shard's newest WAL segment.
  fs::path newest;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(root + "/shard-0")) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("wal-") && name.ends_with(".edx") &&
        (newest.empty() || entry.path().filename() > newest.filename())) {
      newest = entry.path();
    }
  }
  fs::resize_file(newest, fs::file_size(newest) - 16);
  FleetService reopened(options_for(root));
  expect(!check_recovered(fleet.size(), reopened.app_stats(key).applied,
                          reopened.report(key), served)
              .empty(),
         "reopened service that lost an acknowledged record is rejected");
  reopened.close();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: edxbench_selftest SCRATCH_DIR\n";
    return 2;
  }
  try {
    const std::string dir = argv[1];
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::vector<TraceBundle> fleet =
        simulate_fleet(kApp, kUsers, mix_seed(42, kApp, 0));
    dropped_arrival(fleet, dir);
    missing_component(fleet);
    lost_record(fleet, dir);
    fs::remove_all(dir);
  } catch (const std::exception& failure) {
    std::cerr << "edxbench_selftest: " << failure.what() << "\n";
    return 1;
  }
  std::cout << (failures == 0 ? "all checks reject wrong outputs\n"
                              : "some check accepted a wrong output\n");
  return failures == 0 ? 0 : 1;
}
