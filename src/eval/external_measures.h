#ifndef CVCP_EVAL_EXTERNAL_MEASURES_H_
#define CVCP_EVAL_EXTERNAL_MEASURES_H_

/// \file
/// External clustering evaluation against ground-truth class labels. The
/// paper's headline measure is the "Overall F-Measure" (§4.1): for every
/// ground-truth class take the best F-measure over all clusters, then
/// average weighted by class size. The pair-counting indices (Rand, ARI,
/// Jaccard, pairwise F), purity and NMI are not reported by any bench;
/// the clustering test suites use ARI as their quality check.
///
/// All measures accept an optional exclusion mask so objects involved in
/// the supervision given to the clusterer can be set aside, as §4.1
/// requires ("the only objects considered are those that are not involved
/// in the constraints given as input").
///
/// Noise convention: a noise object counts as its own singleton cluster
/// (DESIGN.md §6) — it can never be "paired" with anything.

#include <vector>

#include "cluster/clustering.h"

namespace cvcp {

/// Overall F-Measure in [0, 1]; NaN if no objects survive the mask.
/// `exclude` (optional, dataset-sized) marks objects to ignore.
double OverallFMeasure(const std::vector<int>& labels,
                       const Clustering& clustering,
                       const std::vector<bool>* exclude = nullptr);

/// Pair agreement counts between ground truth and clustering over the
/// non-excluded objects.
struct PairCounts {
  size_t same_same = 0;  ///< same class, same cluster
  size_t same_diff = 0;  ///< same class, different cluster
  size_t diff_same = 0;  ///< different class, same cluster
  size_t diff_diff = 0;  ///< different class, different cluster

  size_t total() const {
    return same_same + same_diff + diff_same + diff_diff;
  }
};

PairCounts CountPairs(const std::vector<int>& labels,
                      const Clustering& clustering,
                      const std::vector<bool>* exclude = nullptr);

/// Rand index in [0, 1].
double RandIndex(const std::vector<int>& labels, const Clustering& clustering,
                 const std::vector<bool>* exclude = nullptr);

/// Hubert & Arabie's adjusted Rand index (chance-corrected; can be < 0).
double AdjustedRandIndex(const std::vector<int>& labels,
                         const Clustering& clustering,
                         const std::vector<bool>* exclude = nullptr);

/// Jaccard index over same-class pairs.
double JaccardIndex(const std::vector<int>& labels,
                    const Clustering& clustering,
                    const std::vector<bool>* exclude = nullptr);

/// Pairwise F-measure (precision/recall over same-cluster pairs).
double PairwiseFMeasure(const std::vector<int>& labels,
                        const Clustering& clustering,
                        const std::vector<bool>* exclude = nullptr);

/// Purity: fraction of objects in their cluster's majority class. Noise
/// singletons are pure by construction.
double Purity(const std::vector<int>& labels, const Clustering& clustering,
              const std::vector<bool>* exclude = nullptr);

/// Normalized mutual information (arithmetic-mean normalization).
double NormalizedMutualInformation(const std::vector<int>& labels,
                                   const Clustering& clustering,
                                   const std::vector<bool>* exclude = nullptr);

}  // namespace cvcp

#endif  // CVCP_EVAL_EXTERNAL_MEASURES_H_
