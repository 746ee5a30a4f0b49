#ifndef CVCP_BENCH_HARNESS_OPTIONS_H_
#define CVCP_BENCH_HARNESS_OPTIONS_H_

/// \file
/// Scale options for the paper-reproduction benches. Defaults are reduced
/// so the whole suite runs in minutes on a laptop; `--paper` (or the env
/// vars) restores the paper's scale (50 trials, 100 ALOI datasets,
/// 10-fold CV).

#include <cstdint>
#include <string>

#include "common/kernel_policy.h"

namespace cvcp::bench {

/// Runtime scale of a bench binary.
struct BenchOptions {
  int trials = 5;             ///< paper: 50   (env CVCP_TRIALS)
  std::size_t aloi_datasets = 10;  ///< paper: 100  (env CVCP_ALOI_DATASETS)
  int n_folds = 5;            ///< paper: "typically 10" (env CVCP_FOLDS)
  uint64_t seed = 20140324;   ///< EDBT 2014 start date (env CVCP_SEED)
  /// CVCP execution-engine threads; 0 = all hardware threads. Results are
  /// identical for any value (env CVCP_THREADS).
  int threads = 0;
  /// Directory of the persistent artifact store (core/artifact_store.h):
  /// condensed distance matrices and OPTICS models are written there and
  /// loaded back on later runs — a second process on a warm directory
  /// performs zero OPTICS rebuilds for cached keys. Results are
  /// byte-identical cold or warm. Empty = no disk tier
  /// (env CVCP_STORE, flag `--store DIR`).
  std::string store_dir;
  /// Capacity of the run-wide shared memory cache tier in MiB; artifacts
  /// past the bound are evicted least-recently-used and transparently
  /// reloaded or recomputed (env CVCP_STORE_CAPACITY_MB,
  /// flag `--store-capacity-mb N`).
  int store_capacity_mb = 256;
  /// Distance-kernel policy for every distance computed by the run:
  /// "fixed" (default; SIMD-dispatched fixed-lane kernels, byte-identical
  /// across scalar/AVX2/NEON and any thread count), "scalar-legacy"
  /// (pre-SIMD left-to-right sums), or "unrolled" (4-accumulator unroll;
  /// neither matches the other two bitwise). Applied both process-wide
  /// (the default every kDefault resolution sees) and on the execution
  /// context threaded through the engine (env CVCP_DISTANCE_KERNEL,
  /// flag `--distance-kernel`).
  DistanceKernelPolicy distance_kernel = DistanceKernelPolicy::kFixedLane;
};

/// Parses env vars, then `--paper` / `--trials N` / `--aloi N` /
/// `--folds N` / `--seed N` / `--threads N` /
/// `--store DIR` / `--store-capacity-mb N` /
/// `--distance-kernel fixed|scalar-legacy|unrolled` flags (flags win).
/// The seed is a full 64-bit unsigned value. Any other argument prints
/// the usage text to stderr and exits with status 2, so a mistyped or
/// retired flag can never run silently at default settings. Also applies
/// the distance-kernel choice process-wide
/// (SetDefaultDistanceKernelPolicy), so kDefault resolutions anywhere in
/// the process agree with the explicit per-context policy.
BenchOptions ParseBenchOptions(int argc, char** argv);

/// One-line banner describing the reproduction target and the scale.
void PrintBanner(const BenchOptions& options, const std::string& title,
                 const std::string& paper_ref);

}  // namespace cvcp::bench

#endif  // CVCP_BENCH_HARNESS_OPTIONS_H_
