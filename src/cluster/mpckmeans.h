#ifndef CVCP_CLUSTER_MPCKMEANS_H_
#define CVCP_CLUSTER_MPCKMEANS_H_

/// \file
/// MPCKMeans — Metric Pairwise Constrained K-Means (Bilenko, Basu & Mooney,
/// ICML 2004), the partitional semi-supervised clusterer the paper evaluates
/// CVCP with. Integrates constraints two ways:
///
///   * soft penalties: violated must-links add a metric-scaled distance
///     penalty, violated cannot-links add a "how far from maximally
///     separated" penalty;
///   * metric learning: per-cluster (or shared) diagonal Mahalanobis
///     weights are re-estimated every M-step from cluster scatter plus the
///     violation terms.
///
/// The maximally-separated pair in the cannot-link penalty is approximated
/// per dimension by the data range, which keeps the penalty separable — the
/// same simplification the reference WekaUT implementation makes for the
/// diagonal case. Initialization seeds centroids from the must-link
/// neighborhood closure (lambda largest neighborhoods), topped up with
/// D^2-weighted sampling when there are fewer neighborhoods than k.

#include <vector>

#include "cluster/clustering.h"
#include "common/kernel_policy.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/status.h"
#include "constraints/constraint_set.h"

namespace cvcp {

/// Which Mahalanobis weights MPCKMeans learns.
enum class MetricMode {
  kNone,                ///< plain Euclidean, no learning (PCKMeans)
  kSingleDiagonal,      ///< one diagonal metric shared by all clusters
  kPerClusterDiagonal,  ///< one diagonal metric per cluster (full MPCK)
};

/// MPCKMeans configuration.
struct MpckMeansConfig {
  int k = 2;
  int max_iters = 50;
  /// Convergence threshold on the relative objective change.
  double tol = 1e-5;
  /// Weight of each violated must-link / cannot-link in the objective.
  double must_link_weight = 1.0;
  double cannot_link_weight = 1.0;
  MetricMode metric_mode = MetricMode::kPerClusterDiagonal;
  /// Seed centroids from must-link neighborhoods (paper's initialization);
  /// false falls back to k-means++.
  bool neighborhood_init = true;
  /// Inert: RunMpckMeans never reads it. It remains until the repository
  /// benchmark stops setting it (common/kernel_policy.h).
  DistanceKernelPolicy kernel = DistanceKernelPolicy::kFixedLane;
};

/// Output of an MPCKMeans run.
struct MpckMeansResult {
  Clustering clustering;
  Matrix centroids;  ///< k x d
  /// Learned diagonal metric weights, one row per cluster (identical rows in
  /// kSingleDiagonal mode; all-ones in kNone mode).
  Matrix metric_weights;
  double objective;
  int iterations;
  bool converged;
};

/// Runs MPCKMeans on `points` with the given (train) constraints.
/// Errors with kInvalidArgument on malformed config or constraint indices
/// out of range; propagates kInconsistentConstraints from the must-link
/// closure used for initialization.
Result<MpckMeansResult> RunMpckMeans(const Matrix& points,
                                     const ConstraintSet& constraints,
                                     const MpckMeansConfig& config, Rng* rng);

}  // namespace cvcp

#endif  // CVCP_CLUSTER_MPCKMEANS_H_
