#ifndef CVCP_CLUSTER_KMEANS_H_
#define CVCP_CLUSTER_KMEANS_H_

/// \file
/// Lloyd's k-means with k-means++ seeding and multi-restart. Serves as the
/// unsupervised baseline and as the structural template MPCKMeans and
/// COP-KMeans build on.

#include "cluster/clustering.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/status.h"

namespace cvcp {

/// k-means configuration.
struct KMeansConfig {
  int k = 2;
  int max_iters = 100;
  /// Convergence threshold on the relative inertia improvement.
  double tol = 1e-6;
  /// Independent restarts; the run with the lowest inertia wins.
  int n_init = 5;
};

/// Output of a k-means run.
struct KMeansResult {
  Clustering clustering;
  Matrix centroids;   ///< k x d
  double inertia;     ///< sum of squared distances to assigned centroids
  int iterations;     ///< of the winning restart
  bool converged;
};

/// Seeds `k` centroids with the k-means++ D^2 weighting
/// (KMeansPlusPlusFill from no placed row).
Matrix KMeansPlusPlusInit(const Matrix& points, int k, Rng* rng);

/// Fills rows `filled`..k-1 of the k x d `centroids` by k-means++ D^2
/// sampling and keeps rows 0..filled-1; D^2 is a point's squared distance
/// to the nearest row placed so far. With no row placed, row 0 is an
/// `Index(n)` draw. Each later row is drawn with probability proportional
/// to D^2, from one `NextDouble()` scaled by the D^2 total summed in
/// index order; a total <= 0 (every point on a placed row) draws
/// `Index(n)` instead. MPCKMeans tops up its neighborhood means with it.
void KMeansPlusPlusFill(const Matrix& points, size_t filled, Matrix* centroids,
                        Rng* rng);

/// Runs k-means. Errors with kInvalidArgument if k < 1, k > n, or the
/// config is malformed.
Result<KMeansResult> RunKMeans(const Matrix& points, const KMeansConfig& config,
                               Rng* rng);

}  // namespace cvcp

#endif  // CVCP_CLUSTER_KMEANS_H_
