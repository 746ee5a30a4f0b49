#ifndef CVCP_CORE_CVCP_H_
#define CVCP_CORE_CVCP_H_

/// \file
/// CVCP — "Cross-Validation for finding Clustering Parameters" — the
/// paper's model-selection framework (§3, steps 1-4):
///
///   1. score every candidate parameter value by sound n-fold CV, treating
///      the produced partition as a classifier for the held-out
///      constraints;
///   2. (repeat over the grid — same folds for every value);
///   3. select the value with the highest mean constraint F-measure, ties
///      broken toward the earlier grid entry;
///   4. re-run the clusterer with the *full* supervision at the selected
///      value.

#include <vector>

#include "common/dataset.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/cross_validation.h"

namespace cvcp {

/// CVCP configuration: the CV protocol and the candidate grid. Parallelism
/// is configured through `cv.exec`; any thread count yields bit-identical
/// reports.
struct CvcpConfig {
  CvConfig cv;
  std::vector<int> param_grid;
  /// Inert: nothing in the engine reads it. It remains until the
  /// repository benchmark stops setting it.
  bool collect_timings = false;
};

/// Cross-validated quality of one grid value.
struct CvcpParamScore {
  int param = 0;
  double score = 0.0;  ///< mean constraint F over valid folds (NaN if none)
  int valid_folds = 0;
};

/// Full CVCP outcome.
struct CvcpReport {
  /// Per-grid-value scores, in grid order.
  std::vector<CvcpParamScore> scores;
  /// Selected parameter (step 3) and its score.
  int best_param = 0;
  double best_score = 0.0;
  /// Step 4: clustering of the whole dataset with all supervision at
  /// best_param.
  Clustering final_clustering;
};

/// CVCP steps 1-3 only: the report RunCvcp returns for the same `rng`,
/// minus `final_clustering`, which stays empty. For callers that cluster
/// at the selected value themselves, such as the bench trials, which
/// already cluster every grid value with full supervision. Errors as
/// RunCvcp, except those of the final run and its cancellation check.
Result<CvcpReport> RunCvcpSelection(const Dataset& data,
                                    const Supervision& supervision,
                                    const SemiSupervisedClusterer& clusterer,
                                    const CvcpConfig& config, Rng* rng,
                                    DatasetCache* cache = nullptr);

/// Runs CVCP: RunCvcpSelection, then step 4 at the selected value.
/// Errors with kInvalidArgument for an empty grid, propagates
/// fold-construction errors (e.g. too little supervision for n folds), and
/// errors with kFailedPrecondition if no grid value produced a valid score.
/// `cache` is the dataset's compute cache (core/dataset_cache.h); null
/// means one private to this call. Every grid×fold cell and the final
/// full-supervision run share its supervision-independent structures, so
/// e.g. FOSC-OPTICSDend runs OPTICS G times instead of G×F+1 times: after
/// building the folds, the clusterer's `PrewarmCache` resolves the grid's
/// models in one G-wide fan-out. The report is byte-identical whichever
/// cache serves it.
Result<CvcpReport> RunCvcp(const Dataset& data, const Supervision& supervision,
                           const SemiSupervisedClusterer& clusterer,
                           const CvcpConfig& config, Rng* rng,
                           DatasetCache* cache = nullptr);

}  // namespace cvcp

#endif  // CVCP_CORE_CVCP_H_
