#include "inputs.h"

#include "common/error.h"
#include "workload/session.h"

namespace edxbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + a * 0xBF58476D1CE4E5B9ULL +
                    b * 0x94D049BB133111EBULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

const std::vector<edx::workload::AppCase>& catalog() {
  static const std::vector<edx::workload::AppCase> apps =
      edx::workload::full_catalog();
  return apps;
}

const edx::workload::AppCase& catalog_app(int id) {
  return edx::workload::catalog_app(catalog(), id);
}

std::vector<edx::trace::TraceBundle> simulate_fleet(int app_id, int users,
                                                    std::uint64_t seed) {
  const edx::workload::AppCase& app = catalog_app(app_id);
  edx::workload::PopulationConfig population;
  population.num_users = users;
  population.seed = seed;
  return edx::workload::collect_traces(app, app.buggy, /*instrumented=*/true,
                                       population)
      .bundles;
}

std::string tenant_key(int app_id) { return "app-" + std::to_string(app_id); }

}  // namespace edxbench
