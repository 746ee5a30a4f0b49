#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "util.h"

namespace perfbench {

struct WorkloadOptions {
  std::string workload;  ///< fosc-labels | mpck-labels | served-mix
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;       ///< thread budget (nproc)
  std::string run_dir;   ///< scratch directory inside the checkout
};

/// The Figure 9 / Figure 10 protocols through RunAloiExperiment.
RunResult RunBatchWorkload(const WorkloadOptions& options);

/// A closed loop of client sessions against an in-process Server.
RunResult RunServedWorkload(const WorkloadOptions& options);

/// Sets one end-to-end metric (units fixed by the benchmark definition).
void SetEndToEnd(Metrics* out, const std::string& name, double value,
                 uint64_t samples = 0);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
