#ifndef CVCP_CORE_SELECTORS_H_
#define CVCP_CORE_SELECTORS_H_

/// \file
/// The paper's comparison selectors (§4.3): the Silhouette-coefficient
/// baseline for centroid algorithms, and the "expected quality" of a
/// uniformly random guess over the grid. An oracle selector (argmax of the
/// external measure) is included as an upper bound for the benches.

#include <span>
#include <vector>

#include "common/dataset.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/clusterer.h"

namespace cvcp {

/// Outcome of silhouette-based model selection.
struct SilhouetteSelection {
  int best_param = 0;
  double best_silhouette = 0.0;
  /// Per-grid-value silhouettes (NaN where undefined, e.g. single cluster).
  std::vector<double> silhouettes;
  /// The clustering produced at best_param (full supervision).
  Clustering best_clustering;
};

/// Runs the clusterer with full supervision at every grid value and picks
/// the clustering with the highest silhouette coefficient. Each run's RNG
/// is forked from `rng` by grid *index* — the same scheme as the bench
/// harness's full-supervision sweep, so both entry points produce the same
/// clustering at the same grid position. Every run clusters through
/// `context`'s DatasetCache — one private to this call when it carries
/// none — and the silhouettes read that cache's Euclidean distance
/// matrix; the selection is byte-identical either way. Errors with
/// kInvalidArgument for an empty grid and kFailedPrecondition if every
/// silhouette is undefined.
Result<SilhouetteSelection> SelectBySilhouette(
    const Dataset& data, const Supervision& supervision,
    const SemiSupervisedClusterer& clusterer, std::span<const int> param_grid,
    Rng* rng, const ClusterContext& context = {});

/// Expected quality of guessing the parameter uniformly from the grid:
/// the mean of `external_scores` ignoring NaNs (paper §4.3). NaN if all
/// entries are NaN.
double ExpectedQuality(std::span<const double> external_scores);

/// Oracle: index of the best (max, NaN-skipping) external score; -1 if all
/// NaN.
int OracleIndex(std::span<const double> external_scores);

}  // namespace cvcp

#endif  // CVCP_CORE_SELECTORS_H_
