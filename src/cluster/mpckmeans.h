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
///
/// What depends on (points, constraints) alone is prepared once as an
/// `MpckSetup` and read by every run from it, so a grid over k prepares
/// each supervision once; iteration 0 starts from the distances the setup
/// and the seeding already hold (docs/architecture.md, "MPCKMeans
/// iteration").

#include <memory>
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

/// What MPCKMeans derives from (points, constraints) alone, whatever k,
/// metric mode or seed a run uses: the constraint-index check, the
/// constraint adjacency, the per-dimension squared ranges, the must-link
/// closure's status and neighborhoods (largest first) with their means,
/// each mean's unit-weight squared distance to every object, and each
/// constraint pair's unit-weight squared distance. A CVCP grid clusters
/// one supervision once per k, so one setup serves the whole grid
/// (`SupervisionMemo`, core/clusterer.h). Immutable once prepared, so any
/// number of runs may read it concurrently. It borrows `points`, and must
/// not outlive them.
struct MpckSetup;

/// Prepares the setup of (points, constraints). Never fails: an index
/// error or an inconsistent closure is recorded and returned by the runs
/// that reach it.
std::shared_ptr<const MpckSetup> PrepareMpckMeans(
    const Matrix& points, const ConstraintSet& constraints);

/// Runs MPCKMeans from a prepared setup. Errors, in this order:
/// kInvalidArgument on malformed config, then kInvalidArgument on
/// constraint indices out of range, then — only with `neighborhood_init`
/// — the must-link closure's kInconsistentConstraints. A run returns the
/// bits, iterations and Rng draws of a run that prepares its own setup.
Result<MpckMeansResult> RunMpckMeans(const MpckSetup& setup,
                                     const MpckMeansConfig& config, Rng* rng);

/// Prepares the setup of (points, constraints) and runs MPCKMeans from it.
Result<MpckMeansResult> RunMpckMeans(const Matrix& points,
                                     const ConstraintSet& constraints,
                                     const MpckMeansConfig& config, Rng* rng);

}  // namespace cvcp

#endif  // CVCP_CLUSTER_MPCKMEANS_H_
