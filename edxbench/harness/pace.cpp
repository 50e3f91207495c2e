#include "pace.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>

#include <pthread.h>
#include <sched.h>

#include "bench.h"

#include <pthread.h>
#include <sched.h>

namespace edxbench {
namespace {

/// The kernel's input: 1000 lines of "id,decimal,decimal,name", built
/// once.
const std::string& reference_text() {
  static const std::string text = [] {
    std::string built;
    for (int i = 0; i < 1000; ++i) {
      char line[96];
      std::snprintf(line, sizeof line, "%d,%.4f,%.4f,event_%d\n", i * 37,
                    i * 0.123, i * 1.77, i % 97);
      built += line;
    }
    return built;
  }();
  return text;
}

volatile double g_sink = 0.0;

}  // namespace

double run_reference_kernel() {
  const std::string& text = reference_text();
  const std::int64_t start = now_ns();
  std::istringstream in(text);
  std::string line;
  std::string copy;
  std::vector<double> values;
  while (std::getline(in, line)) {
    const std::size_t first = line.find(',');
    const std::size_t second = line.find(',', first + 1);
    const std::size_t third = line.find(',', second + 1);
    double a = 0.0;
    double b = 0.0;
    std::from_chars(line.data() + first + 1, line.data() + second, a);
    std::from_chars(line.data() + second + 1, line.data() + third, b);
    values.push_back(a + b);
    copy += line + "\n";
  }
  g_sink = values.back() + static_cast<double>(copy.size());
  return ms_between(start, now_ns()) * 1e3;
}

Pace::Pace(Sampling sampling) {
  if (sampling != Sampling::kEveryCpu) return;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  for (int cpu = 0; cpu < CPU_SETSIZE && samplers_.size() < kMaxSamplers;
       ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      samplers_.emplace_back([this, cpu] { loop(cpu); });
    }
  }
}

Pace::~Pace() {
  stop_.store(true);
  for (std::thread& sampler : samplers_) sampler.join();
}

void Pace::record(std::int64_t start_ns, double us) {
  const std::lock_guard<std::mutex> lock(mutex_);
  samples_.push_back({start_ns, us});
}

void Pace::sample() {
  const std::int64_t start = now_ns();
  record(start, run_reference_kernel());
}

/// A sampler: bound to `cpu`, runs the kernel every kPeriod.
void Pace::loop(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pthread_setaffinity_np(pthread_self(), sizeof one, &one);
  auto next = std::chrono::steady_clock::now();
  while (!stop_.load()) {
    sample();
    next += kPeriod;
    std::this_thread::sleep_until(next);
  }
}

double Pace::kernel_s(std::int64_t start_ns, std::int64_t end_ns) const {
  double total_us = 0.0;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Sample& sample : samples_) {
    if (sample.start_ns >= start_ns && sample.start_ns < end_ns) {
      total_us += sample.us;
    }
  }
  return total_us / 1e6;
}

double Pace::reference_s(double wall_s, std::int64_t start_ns,
                         std::int64_t end_ns) const {
  std::vector<double> inside;
  double nearest_us = kReferenceKernelUs;
  std::int64_t nearest_gap = std::numeric_limits<std::int64_t>::max();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Sample& sample : samples_) {
      if (sample.start_ns >= start_ns && sample.start_ns < end_ns) {
        inside.push_back(sample.us);
      }
      const std::int64_t gap =
          std::min(std::abs(sample.start_ns - start_ns),
                   std::abs(sample.start_ns - end_ns));
      if (gap < nearest_gap) {
        nearest_gap = gap;
        nearest_us = sample.us;
      }
    }
  }
  const double kernel_us = inside.empty() ? nearest_us : median(inside);
  return wall_s * kReferenceKernelUs / kernel_us;
}

double Pace::median_kernel_us() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> all;
  for (const Sample& sample : samples_) all.push_back(sample.us);
  return median(all);
}

}  // namespace edxbench
