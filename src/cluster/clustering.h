#ifndef CVCP_CLUSTER_CLUSTERING_H_
#define CVCP_CLUSTER_CLUSTERING_H_

/// \file
/// A flat clustering: one cluster id per object, with -1 marking noise
/// (objects left unclustered by density-based extraction). Throughout the
/// library, noise objects are treated as *singletons*: a noise object is
/// never "in the same cluster" as anything, including another noise object.
/// DESIGN.md §6 records this decision; bench_ablation_noise measures the
/// alternative.

#include <vector>

#include "common/check.h"

namespace cvcp {

/// Cluster id used for unclustered (noise) objects.
inline constexpr int kNoise = -1;

/// Flat partition (plus optional noise) over objects {0, ..., n-1}.
class Clustering {
 public:
  Clustering() = default;

  /// Takes an assignment vector; ids must be >= -1.
  explicit Clustering(std::vector<int> assignment);

  size_t size() const { return assignment_.size(); }
  const std::vector<int>& assignment() const { return assignment_; }

  int cluster_of(size_t i) const {
    CVCP_DCHECK_LT(i, assignment_.size());
    return assignment_[i];
  }

  bool IsNoise(size_t i) const { return cluster_of(i) == kNoise; }

  /// True iff both objects are clustered and share a cluster id. Noise
  /// objects are never together (singleton semantics).
  bool SameCluster(size_t i, size_t j) const {
    const int a = cluster_of(i);
    return a != kNoise && a == cluster_of(j);
  }

  /// Number of distinct non-noise cluster ids.
  int NumClusters() const;

  /// Number of noise objects.
  size_t NumNoise() const;

  /// Object ids grouped by cluster, indexed by a compacted cluster id
  /// (0..k-1, in order of first appearance). Noise objects are excluded.
  std::vector<std::vector<size_t>> Groups() const;

 private:
  std::vector<int> assignment_;
};

}  // namespace cvcp

#endif  // CVCP_CLUSTER_CLUSTERING_H_
