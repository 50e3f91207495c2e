// The host's speed, sampled while a workload runs, so that its timings
// can be reported at one reference speed.
//
// On a shared host the same code runs at speeds 20-40% apart for minutes
// at a time (other guests on the same physical cores, the cores' clock),
// with no CPU steal to show for it, and which cores are slowed changes
// from one minute to the next.  A Pace times a fixed reference kernel:
// the benchmark's own code, none of the program's, doing the kind of
// work trace parsing does (getline over text, from_chars of decimals,
// string appends, vector growth).  A window's wall time scaled by
// kReferenceKernelUs over the kernel's median time in that window is
// the time the window would take on a host where the kernel takes
// kReferenceKernelUs.
//
// The kernel runs either where the caller asks (sample(), on the
// caller's thread, next to work that runs on that thread), or on one
// sampler thread per CPU the process may use, every kPeriod (for work
// spread over threads the benchmark does not own).  A sampler run takes
// ~0.15 ms, so the samplers take ~3% of each CPU.  A sample is the
// kernel's wall time, as the windows' are: timed in CPU time instead,
// the kernel left out the time the host took the CPU away, which the
// workload's wall time includes, and tracked it less closely.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace edxbench {

class Pace {
 public:
  /// The kernel's time on the reference host, in microseconds: about
  /// its time on a 4-vCPU VM whose cores nothing else was using.
  static constexpr double kReferenceKernelUs = 125.0;
  static constexpr auto kPeriod = std::chrono::milliseconds(5);
  /// At most this many sampler threads, on the first CPUs of the
  /// process's affinity mask.
  static constexpr std::size_t kMaxSamplers = 16;

  enum class Sampling {
    kCaller,    ///< only the caller's sample() calls
    kEveryCpu,  ///< one sampler thread per CPU, every kPeriod
  };

  explicit Pace(Sampling sampling);
  ~Pace();
  Pace(const Pace&) = delete;
  Pace& operator=(const Pace&) = delete;

  /// Runs the kernel once on the calling thread and records it.
  void sample();
  /// Total time of the samples that started in [start_ns, end_ns), in
  /// seconds, for a caller that samples inside a window it times.
  [[nodiscard]] double kernel_s(std::int64_t start_ns,
                                std::int64_t end_ns) const;
  /// `wall_s` seconds measured over [start_ns, end_ns), at the reference
  /// speed: scaled by the median of the samples that started in that
  /// window (or, when none did, by the sample nearest to it).
  [[nodiscard]] double reference_s(double wall_s, std::int64_t start_ns,
                                   std::int64_t end_ns) const;
  /// Median time of every sample so far, in microseconds.
  [[nodiscard]] double median_kernel_us() const;

 private:
  struct Sample {
    std::int64_t start_ns;
    double us;
  };
  void record(std::int64_t start_ns, double us);
  void loop(int cpu);

  mutable std::mutex mutex_;
  std::vector<Sample> samples_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> samplers_;  // last: start after every member
};

/// One run of the reference kernel; returns its time in microseconds.
double run_reference_kernel();

}  // namespace edxbench
