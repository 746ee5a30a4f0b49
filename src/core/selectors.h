#ifndef CVCP_CORE_SELECTORS_H_
#define CVCP_CORE_SELECTORS_H_

/// \file
/// The full-supervision sweep every selector is judged on (§4.1), and the
/// paper's comparison selectors (§4.3): the Silhouette-coefficient
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

/// The clusterings of a full-supervision sweep, one per grid value.
struct GridSweep {
  std::vector<Clustering> clusterings;
  /// Per-grid-value silhouettes: NaN where undefined (e.g. a single
  /// cluster), and everywhere unless the sweep was asked for them.
  std::vector<double> silhouettes;
};

/// Clusters all of `data` with the full supervision at every grid value
/// (§4.1). Run `gi` uses `rng->Fork(gi)` — by grid *index*, so duplicate
/// entries get independent streams and negative params never wrap — and
/// clusters through `context.cache` and `context.supervision` (each one
/// private to this call when it carries none, so the grid shares one
/// supervision memo). The runs fan out under `context.exec` through
/// ParallelForFirstError, so the sweep is byte-identical at every width and
/// the first error in grid order wins. With `with_silhouettes`, each run's
/// silhouette is read from the cache's distance matrix.
Result<GridSweep> SweepGrid(const Dataset& data,
                            const Supervision& supervision,
                            const SemiSupervisedClusterer& clusterer,
                            std::span<const int> param_grid, Rng* rng,
                            const ClusterContext& context,
                            bool with_silhouettes);

/// Outcome of silhouette-based model selection.
struct SilhouetteSelection {
  int best_param = 0;
  double best_silhouette = 0.0;
  /// Per-grid-value silhouettes (NaN where undefined, e.g. single cluster).
  std::vector<double> silhouettes;
  /// The clustering produced at best_param (full supervision).
  Clustering best_clustering;
};

/// Sweeps the grid with SweepGrid and picks the first clustering with the
/// highest silhouette coefficient; the first error in grid order wins.
/// Errors with kInvalidArgument for an empty grid and kFailedPrecondition
/// if every silhouette is undefined.
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
