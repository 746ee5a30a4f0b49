#ifndef CVCP_CLUSTER_SILHOUETTE_H_
#define CVCP_CLUSTER_SILHOUETTE_H_

/// \file
/// Silhouette coefficient (Kaufman & Rousseeuw 1990) — the paper's baseline
/// for selecting k for MPCKMeans (§4.3): among candidate k values, pick the
/// clustering with the highest mean silhouette. Exact O(n^2) form over a
/// precomputed distance matrix (the dataset cache's, in the engine).

#include "cluster/clustering.h"
#include "common/distance.h"

namespace cvcp {

/// Mean silhouette over all clustered objects, reading pairwise distances
/// from `distances`. Conventions:
///  * noise objects are ignored;
///  * objects in singleton clusters get s(i) = 0 (Kaufman & Rousseeuw);
///  * returns NaN when fewer than 2 clusters have members (silhouette
///    undefined), which makes a k=1 candidate never win model selection.
double SilhouetteCoefficient(const DistanceMatrix& distances,
                             const Clustering& clustering);

}  // namespace cvcp

#endif  // CVCP_CLUSTER_SILHOUETTE_H_
