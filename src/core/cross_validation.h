#ifndef CVCP_CORE_CROSS_VALIDATION_H_
#define CVCP_CORE_CROSS_VALIDATION_H_

/// \file
/// The paper's sound n-fold cross-validation driver (§3.1, Fig. 1): split
/// the supervision into independent train/test folds, cluster the whole
/// dataset with the training part, classify the test fold's constraints
/// with the resulting partition, and average the constraint F-measure over
/// folds. Folds are built once and reused across parameter values so CVCP
/// compares parameters on identical splits.
///
/// Execution model: every (param, fold) cell is an independent clustering
/// job whose RNG is forked from (param, fold) alone, so ScoreGridOnFolds
/// fans the grid×fold cells out across the shared thread pool
/// (ParallelForFirstError, common/parallel.h) in canonical (grid-order,
/// fold-order) sequence at every width. Each cell writes only its own
/// score and the first error in that order wins, so results — error
/// semantics included — are bit-identical to the serial loop at every
/// thread count.

#include <cstdint>
#include <vector>

#include "common/dataset.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "constraints/folds.h"
#include "core/clusterer.h"
#include "core/supervision.h"

namespace cvcp {

/// The streams RunCvcp forks off the caller's RNG for fold construction
/// and cell scoring.
inline constexpr uint64_t kFoldStreamId = 0xF01D5ULL;
inline constexpr uint64_t kScoreStreamId = 0x5C0BEULL;

/// Cross-validation configuration.
struct CvConfig {
  int n_folds = 10;
  /// Scenario I only: stratify folds by class label.
  bool stratified = false;
  /// Parallelism for the grid×fold cell fan-out (results are identical for
  /// any thread count; threads = 1 runs the cells in a plain loop).
  ExecutionContext exec;
};

/// Builds the scenario-appropriate folds for the given supervision:
/// Scenario I uses MakeLabelFolds, Scenario II uses MakeConstraintFolds.
Result<std::vector<FoldSplit>> MakeSupervisionFolds(
    const Dataset& data, const Supervision& supervision,
    const CvConfig& config, Rng* rng);

/// Cross-validated score of one parameter value.
struct CvScore {
  /// Mean constraint-classification F over the valid folds; NaN if none.
  double mean_f = 0.0;
  /// Per-fold averages (NaN where a fold had no test constraints).
  std::vector<double> fold_scores;
  int valid_folds = 0;
};

/// Scores every grid value on prebuilt folds. Every (param, fold) cell
/// runs through one ParallelForFirstError fan-out on the shared pool
/// (`exec`), in (grid-order, fold-order) sequence at every width; each
/// cell's RNG is forked by (param, fold), and the first error in cell
/// order wins. Returned scores are bit-identical to scoring each param
/// serially, for every thread count. The clusterer sees only each fold's
/// training supervision (labels when Scenario I provided them, else
/// constraints), built once before the fan-out from what the fold holds
/// and shared read-only by the fold's cells, each fold with one
/// `SupervisionMemo` its cells share (MPCKMeans prepares its setup once
/// per fold instead of once per k); the test fold's constraints
/// only ever meet the finished partition. When `cache` is non-null every
/// cell clusters through it, so the supervision-independent stages —
/// distance matrix, OPTICS models — are built once and shared across the
/// G×F cells (core/dataset_cache.h).
Result<std::vector<CvScore>> ScoreGridOnFolds(
    const Dataset& data, const std::vector<FoldSplit>& folds,
    SupervisionKind kind, const SemiSupervisedClusterer& clusterer,
    const std::vector<int>& param_grid, Rng* rng,
    const ExecutionContext& exec = ExecutionContext::Serial(),
    DatasetCache* cache = nullptr);

}  // namespace cvcp

#endif  // CVCP_CORE_CROSS_VALIDATION_H_
