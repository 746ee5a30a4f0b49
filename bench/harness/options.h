#ifndef CVCP_BENCH_HARNESS_OPTIONS_H_
#define CVCP_BENCH_HARNESS_OPTIONS_H_

/// \file
/// Scale options for the paper-reproduction benches. Defaults are reduced
/// so the whole suite runs in minutes on a laptop; `--paper` (or the env
/// vars) restores the paper's scale (50 trials, 100 ALOI datasets,
/// 10-fold CV).

#include <cstdint>
#include <string>

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
};

/// Parses env vars, then `--paper` / `--trials N` / `--aloi N` /
/// `--folds N` / `--seed N` / `--threads N` /
/// `--store DIR` / `--store-capacity-mb N` flags (flags win).
/// The seed is a full 64-bit unsigned value. Any other argument, and a
/// value flag whose value is missing or not a whole base-10 number,
/// prints the usage text to stderr and exits with status 2, so a
/// mistyped or retired flag can never run silently at default settings.
BenchOptions ParseBenchOptions(int argc, char** argv);

/// One-line banner describing the reproduction target and the scale.
void PrintBanner(const BenchOptions& options, const std::string& title,
                 const std::string& paper_ref);

}  // namespace cvcp::bench

#endif  // CVCP_BENCH_HARNESS_OPTIONS_H_
