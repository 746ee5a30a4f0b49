#ifndef CVCP_BENCH_HARNESS_OPTIONS_H_
#define CVCP_BENCH_HARNESS_OPTIONS_H_

/// \file
/// Scale options for the paper-reproduction benches. Defaults are reduced
/// so the whole suite runs in minutes on a laptop; `--paper` restores the
/// paper's scale (50 trials, 100 ALOI datasets, 10-fold CV). Flags are the
/// only input: no environment variable changes a bench run.

#include <cstdint>
#include <string>

namespace cvcp::bench {

/// Runtime scale of a bench binary.
struct BenchOptions {
  int trials = 5;                  ///< paper: 50
  std::size_t aloi_datasets = 10;  ///< paper: 100
  int n_folds = 5;                 ///< paper: "typically 10"
  uint64_t seed = 20140324;        ///< EDBT 2014 start date
  /// CVCP execution-engine threads; 0 = all hardware threads. Results are
  /// identical for any value.
  int threads = 0;
  /// Directory of the persistent artifact store (core/artifact_store.h):
  /// condensed distance matrices and OPTICS models are written there and
  /// loaded back on later runs — a second process on a warm directory
  /// performs zero OPTICS rebuilds for cached keys. Results are
  /// byte-identical cold or warm. Empty = no disk tier (flag
  /// `--store DIR`).
  std::string store_dir;
  /// Capacity of the run-wide shared memory cache tier in MiB; artifacts
  /// past the bound are evicted least-recently-used and transparently
  /// reloaded or recomputed (flag `--store-capacity-mb N`).
  int store_capacity_mb = 256;
};

/// Parses the `--paper` / `--trials N` / `--aloi N` / `--folds N` /
/// `--seed N` / `--threads N` / `--store DIR` / `--store-capacity-mb N`
/// flags over the defaults. The seed is a full 64-bit unsigned value.
/// Any other argument, and a value flag whose value is missing, not a
/// whole base-10 number, or outside its field's type (a negative
/// `--aloi`, an `int` flag past INT_MAX), prints the usage text to stderr
/// and exits with status 2, so a mistyped or retired flag can never run
/// silently at default settings or at a wrapped value. An in-range value
/// below a field's floor is clamped to it (`--trials 1` runs 2 trials).
BenchOptions ParseBenchOptions(int argc, char** argv);

/// One-line banner describing the reproduction target and the scale.
void PrintBanner(const BenchOptions& options, const std::string& title,
                 const std::string& paper_ref);

}  // namespace cvcp::bench

#endif  // CVCP_BENCH_HARNESS_OPTIONS_H_
