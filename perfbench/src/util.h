#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

// Clocks, resource probes, percentiles and the metric map shared by the
// workloads. Everything here is measurement plumbing; nothing feeds the
// library's inputs.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU time of the whole process, all threads.
inline double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

/// Peak resident set of the process so far, in MiB.
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

/// Pins the calling thread to one CPU for the object's lifetime; threads it
/// creates meanwhile inherit the pin.
class ScopedCpuPin {
 public:
  explicit ScopedCpuPin(int cpu) {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~ScopedCpuPin() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  ScopedCpuPin(const ScopedCpuPin&) = delete;
  ScopedCpuPin& operator=(const ScopedCpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Times a workload's set-up several times. The host's CPUs do not run
/// single-threaded code equally fast (one can be a third slower), so which
/// CPU a short set-up lands on would decide its time: eight runs are
/// pinned to the allowed CPUs in turn, then one runs unpinned and is the
/// one the workload keeps (threads it starts must not inherit a pin).
/// `setup` returns the ms of its own timed part.
template <typename Setup>
std::vector<double> TimeSetups(Setup&& setup) {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  std::vector<double> ms;
  for (size_t r = 0; r < 8 && !cpus.empty(); ++r) {
    ScopedCpuPin pin(cpus[r % cpus.size()]);
    ms.push_back(setup());
  }
  ms.push_back(setup());
  return ms;
}

struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;  ///< observations behind the value (0 = a total)
};

using Metrics = std::map<std::string, Metric>;

/// What one workload run reports back to main: the metrics of the mode
/// it ran in, op accounting, and the output digests.
struct RunResult {
  Metrics metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;      ///< ops that errored, were rejected, or mismatched
  uint64_t mismatched = 0;  ///< the subset of `failed` whose output differed
  /// Digest of the outputs of the first `reference_ops` ops, which are the
  /// same for a given seed however long the run is.
  std::string reference_digest;
  uint64_t reference_ops = 0;
  std::vector<std::string> notes;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
