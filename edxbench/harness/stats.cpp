#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <time.h>
#include <unistd.h>

#include "bench.h"

namespace edxbench {

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void Result::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void Result::reject(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

double Result::value(const std::string& name) const {
  for (const Metric& metric : metrics) {
    if (metric.name == name) return metric.value;
  }
  throw std::logic_error("edxbench: no metric " + name);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(std::floor(rank));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(low);
  return values[low] + (values[high] - values[low]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::uint64_t tree_bytes(const std::string& path) {
  namespace fs = std::filesystem;
  std::uint64_t total = 0;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(path)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

}  // namespace edxbench
