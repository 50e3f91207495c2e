// Seeded inputs: simulated upload populations of the catalog apps.
//
// Every bundle comes from the program's own simulator
// (workload::collect_traces over the buggy, instrumented build), with a
// population seed derived from the run's --seed, the app id and a
// stream number — the same --seed gives the same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/recorder.h"
#include "workload/catalog.h"

namespace edxbench {

/// splitmix64-style mix of the run seed with two stream coordinates.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b);

/// The catalog (40 Table III apps, ids 1..40).
const std::vector<edx::workload::AppCase>& catalog();
const edx::workload::AppCase& catalog_app(int id);

/// `users` simulated uploads of app `app_id`, users 0..users-1.
std::vector<edx::trace::TraceBundle> simulate_fleet(int app_id, int users,
                                                    std::uint64_t seed);

/// Tenant key of a catalog app in the service workloads.
std::string tenant_key(int app_id);

}  // namespace edxbench
