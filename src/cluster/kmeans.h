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

/// out[i * stride] = |c - x_i|^2 for every point x_i, four contiguous
/// rows per kernel call: the column k-means++ sampling measures for a
/// placed row `c` (d doubles). A batched pair keeps the single-pair order
/// of operations, and c - x and x - c differ only in sign, so each entry
/// has the bits of SquaredEuclideanDistance(x_i, c).
void SquaredDistanceColumn(const Matrix& points, const double* c, double* out,
                           size_t stride = 1);

/// Fills rows `filled`..k-1 of the k x d `centroids` by k-means++ D^2
/// sampling and keeps rows 0..filled-1; D^2 is a point's squared distance
/// to the nearest row placed so far. With no row placed, row 0 is an
/// `Index(n)` draw. Each later row is drawn with probability proportional
/// to D^2, from one `NextDouble()` scaled by the D^2 total summed in
/// index order; a total <= 0 (every point on a placed row) draws
/// `Index(n)` instead. MPCKMeans tops up its neighborhood means with it.
///
/// `d2`, when non-null, is an n x k row-major block whose entry (i, h) is
/// point i's SquaredDistanceColumn entry for row h. On entry its columns
/// 0..filled-1 must hold the placed rows' entries, and the sampling reads
/// them instead of measuring those rows again. On return it also holds
/// the column of every row the sampling measured. Returns the number of
/// leading columns that hold entries: k when every row was placed, else
/// k - 1 (the last row drawn is never measured).
size_t KMeansPlusPlusFill(const Matrix& points, size_t filled,
                          Matrix* centroids, Rng* rng, double* d2 = nullptr);

/// Runs k-means. Errors with kInvalidArgument if k < 1, k > n, or the
/// config is malformed.
Result<KMeansResult> RunKMeans(const Matrix& points, const KMeansConfig& config,
                               Rng* rng);

}  // namespace cvcp

#endif  // CVCP_CLUSTER_KMEANS_H_
