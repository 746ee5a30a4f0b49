#ifndef CVCP_COMMON_DISTANCE_H_
#define CVCP_COMMON_DISTANCE_H_

/// \file
/// Distance metrics and a condensed pairwise distance matrix. Weighted
/// squared Euclidean (diagonal Mahalanobis) is the form MPCKMeans learns.
///
/// Every entry point takes an optional `DistanceKernelPolicy`
/// (common/kernel_policy.h) selecting the inner-loop implementation;
/// `kDefault` resolves to the process default (fixed-lane SIMD unless
/// `CVCP_DISTANCE_KERNEL` says otherwise). Within one policy, results
/// are bitwise-identical for any thread count, tiling, and hardware.

#include <cstddef>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/kernel_policy.h"
#include "common/matrix.h"
#include "common/parallel.h"

namespace cvcp {

/// Supported point-to-point metrics.
enum class Metric {
  kEuclidean,
  kSquaredEuclidean,
  kManhattan,
  kCosine,  ///< 1 - cosine similarity; zero vectors are at distance 1.
};

/// Distance between two equal-length vectors under `metric`.
double Distance(std::span<const double> a, std::span<const double> b,
                Metric metric,
                DistanceKernelPolicy policy = DistanceKernelPolicy::kDefault);

double EuclideanDistance(std::span<const double> a, std::span<const double> b,
                         DistanceKernelPolicy policy =
                             DistanceKernelPolicy::kDefault);
double SquaredEuclideanDistance(std::span<const double> a,
                                std::span<const double> b,
                                DistanceKernelPolicy policy =
                                    DistanceKernelPolicy::kDefault);
double ManhattanDistance(std::span<const double> a, std::span<const double> b,
                         DistanceKernelPolicy policy =
                             DistanceKernelPolicy::kDefault);
double CosineDistance(std::span<const double> a, std::span<const double> b,
                      DistanceKernelPolicy policy =
                          DistanceKernelPolicy::kDefault);

/// Diagonal-Mahalanobis squared distance: sum_m w[m] * (a[m]-b[m])^2.
/// Weights must be non-negative.
double WeightedSquaredEuclidean(std::span<const double> a,
                                std::span<const double> b,
                                std::span<const double> weights,
                                DistanceKernelPolicy policy =
                                    DistanceKernelPolicy::kDefault);

/// DEPRECATED shim over SetDefaultDistanceKernelPolicy: `true` sets the
/// process-default policy to `kUnrolled`, `false` restores the modern
/// default (`kFixedLane`). Kept so old callers keep compiling; new code
/// should thread a DistanceKernelPolicy through ExecutionContext (or set
/// the default explicitly). Pinned by tests/distance_kernels_test.cc.
void SetUnrolledDistanceKernels(bool enabled);

/// DEPRECATED shim: whether the process-default policy is `kUnrolled`.
bool UnrolledDistanceKernelsEnabled();

/// Precomputed symmetric pairwise distances, condensed upper-triangular
/// storage: n*(n-1)/2 values. Diagonal is implicitly zero.
class DistanceMatrix {
 public:
  DistanceMatrix() : n_(0) {}

  /// Computes all pairwise distances between rows of `points` with a
  /// tiled (cache-blocked) sweep: row-panel × column-panel tiles sized
  /// to L2, the column panel repacked into a contiguous scratch buffer,
  /// one parallel task per tile. Each pair's value is a pure function of
  /// its two rows under `exec.distance_kernel`, and every entry lands in
  /// its own condensed slot, so the result is bit-identical for any
  /// thread count and any tile shape (pinned against ComputeUntiled).
  static DistanceMatrix Compute(const Matrix& points, Metric metric,
                                const ExecutionContext& exec = {});

  /// The pre-tiling row sweep (one task per row), kept as the oracle the
  /// tiled build is pinned against and as the bench baseline.
  static DistanceMatrix ComputeUntiled(const Matrix& points, Metric metric,
                                       const ExecutionContext& exec = {});

  /// Rehydrates a matrix from condensed storage (the artifact store's
  /// deserialization path). `data` must hold exactly n*(n-1)/2 entries.
  static DistanceMatrix FromCondensed(size_t n, std::vector<double> data);

  size_t n() const { return n_; }

  /// The raw condensed upper-triangular storage, in CondensedIndex order
  /// (the artifact store's serialization path).
  const std::vector<double>& condensed() const { return data_; }

  /// Bytes held by the condensed storage (the memory-tier cache charge).
  size_t MemoryBytes() const { return data_.size() * sizeof(double); }

  /// Distance between objects i and j (order-insensitive).
  double operator()(size_t i, size_t j) const {
    CVCP_DCHECK_LT(i, n_);
    CVCP_DCHECK_LT(j, n_);
    if (i == j) return 0.0;
    return data_[CondensedIndex(i, j)];
  }

  /// Index of the (i, j) pair (i != j, order-insensitive) in the condensed
  /// row-major upper-triangular storage. Exposed so tests can pin the
  /// addressing scheme the parallel Compute writes into.
  size_t CondensedIndex(size_t i, size_t j) const {
    CVCP_DCHECK_LT(i, n_);
    CVCP_DCHECK_LT(j, n_);
    CVCP_DCHECK(i != j);  // the diagonal has no condensed slot
    if (i > j) std::swap(i, j);
    return i * n_ - i * (i + 1) / 2 + (j - i - 1);
  }

 private:
  size_t n_;
  std::vector<double> data_;
};

}  // namespace cvcp

#endif  // CVCP_COMMON_DISTANCE_H_
