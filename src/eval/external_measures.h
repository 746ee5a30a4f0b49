#ifndef CVCP_EVAL_EXTERNAL_MEASURES_H_
#define CVCP_EVAL_EXTERNAL_MEASURES_H_

/// \file
/// External clustering evaluation against ground-truth class labels. The
/// paper judges every pick by one measure, the "Overall F-Measure"
/// (§4.1): for every ground-truth class take the best F-measure over all
/// clusters, then average weighted by class size. The adjusted Rand
/// index is the quality check of the clustering test suites; no bench
/// reports it.
///
/// Both measures accept an optional exclusion mask so objects involved in
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

/// Hubert & Arabie's adjusted Rand index (chance-corrected; can be < 0).
double AdjustedRandIndex(const std::vector<int>& labels,
                         const Clustering& clustering,
                         const std::vector<bool>* exclude = nullptr);

}  // namespace cvcp

#endif  // CVCP_EVAL_EXTERNAL_MEASURES_H_
