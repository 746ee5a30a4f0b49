#include "core/cvcp.h"

#include <cmath>
#include <optional>

#include "core/dataset_cache.h"

namespace cvcp {

Result<CvcpReport> RunCvcpSelection(const Dataset& data,
                                    const Supervision& supervision,
                                    const SemiSupervisedClusterer& clusterer,
                                    const CvcpConfig& config, Rng* rng,
                                    DatasetCache* cache) {
  if (config.param_grid.empty()) {
    return Status::InvalidArgument("CVCP needs a non-empty parameter grid");
  }
  std::optional<DatasetCache> own;
  if (cache == nullptr) cache = &own.emplace(data.points());

  // One set of folds, shared by every grid value (paired comparison).
  Rng fold_rng = rng->Fork(kFoldStreamId);
  CVCP_ASSIGN_OR_RETURN(
      std::vector<FoldSplit> folds,
      MakeSupervisionFolds(data, supervision, config.cv, &fold_rng));

  // Resolve the grid's supervision-independent models once, one lane per
  // grid value, before the cells of one value start together and race
  // to build the same key.
  clusterer.PrewarmCache(data, config.param_grid, cache, config.cv.exec);

  // Steps 1-2: every (param, fold) cell as one job fan-out. The scheduler
  // reduces in (grid-order, fold-order), so the scores — and any error —
  // are bit-identical to looping the grid serially.
  CvcpReport report;
  Rng score_rng = rng->Fork(kScoreStreamId);
  CVCP_ASSIGN_OR_RETURN(
      std::vector<CvScore> cv_scores,
      ScoreGridOnFolds(data, folds, supervision.kind(), clusterer,
                       config.param_grid, &score_rng, config.cv.exec, cache));

  report.scores.reserve(config.param_grid.size());
  bool have_best = false;
  for (size_t g = 0; g < config.param_grid.size(); ++g) {
    CvcpParamScore entry;
    entry.param = config.param_grid[g];
    entry.score = cv_scores[g].mean_f;
    entry.valid_folds = cv_scores[g].valid_folds;
    report.scores.push_back(entry);
    // Step 3: argmax, first (grid-order) winner on ties.
    if (!std::isnan(entry.score) &&
        (!have_best || entry.score > report.best_score)) {
      report.best_param = entry.param;
      report.best_score = entry.score;
      have_best = true;
    }
  }
  if (!have_best) {
    return Status::FailedPrecondition(
        "no parameter value produced a valid cross-validation score");
  }
  return report;
}

Result<CvcpReport> RunCvcp(const Dataset& data, const Supervision& supervision,
                           const SemiSupervisedClusterer& clusterer,
                           const CvcpConfig& config, Rng* rng,
                           DatasetCache* cache) {
  // One cache for steps 1-3 and step 4, so the final run reuses the
  // grid's geometry.
  std::optional<DatasetCache> own;
  if (cache == nullptr) cache = &own.emplace(data.points());
  CVCP_ASSIGN_OR_RETURN(
      CvcpReport report,
      RunCvcpSelection(data, supervision, clusterer, config, rng, cache));

  // Step 4: final run with all available supervision. Last cancellation
  // boundary: past this point the report is complete and its bytes are
  // the deterministic function of the spec that the stores rely on.
  CVCP_RETURN_IF_ERROR(config.cv.exec.cancel.Check());
  Rng final_rng = rng->Fork(0xF17A1ULL);
  CVCP_ASSIGN_OR_RETURN(
      report.final_clustering,
      clusterer.Cluster(data, supervision, report.best_param, &final_rng,
                        ClusterContext{cache, config.cv.exec}));
  return report;
}

}  // namespace cvcp
