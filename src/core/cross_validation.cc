#include "core/cross_validation.h"

#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>

#include "core/fmeasure.h"

namespace cvcp {

Result<std::vector<FoldSplit>> MakeSupervisionFolds(
    const Dataset& data, const Supervision& supervision,
    const CvConfig& config, Rng* rng) {
  FoldConfig fold_config;
  fold_config.n_folds = config.n_folds;
  fold_config.stratified = config.stratified;
  if (supervision.kind() == SupervisionKind::kLabels) {
    return MakeLabelFolds(supervision.involved_objects(),
                          supervision.sparse_labels(), data.size(),
                          fold_config, rng);
  }
  return MakeConstraintFolds(supervision.constraints(), fold_config, rng);
}

Result<std::vector<CvScore>> ScoreGridOnFolds(
    const Dataset& data, const std::vector<FoldSplit>& folds,
    SupervisionKind kind, const SemiSupervisedClusterer& clusterer,
    const std::vector<int>& param_grid, Rng* rng,
    const ExecutionContext& exec, DatasetCache* cache) {
  const size_t n_folds = folds.size();
  // Already cancelled or past deadline: fail before any cell runs.
  CVCP_RETURN_IF_ERROR(exec.cancel.Check());

  // Training supervision, built once per fold and shared read-only by the
  // fold's cells, each with the memo of what a clusterer derives from it
  // alone, shared by the fold's grid values.
  std::vector<Supervision> train;
  train.reserve(n_folds);
  for (const FoldSplit& fold : folds) {
    train.push_back(kind == SupervisionKind::kLabels
                        ? Supervision::FromLabelFold(fold)
                        : Supervision::FromConstraints(fold.train_constraints));
  }
  std::deque<SupervisionMemo> memos;  // a memo holds a mutex: never moved
  for (const Supervision& fold_train : train) {
    memos.emplace_back(data.points(), fold_train.constraints());
  }

  // Cell c is (grid value c / F, fold c % F), in canonical order at every
  // width. Each cell writes only its own fold score: the constraint
  // F-measure, NaN when the fold had no test constraints.
  std::vector<double> cell_scores(param_grid.size() * n_folds);
  const Status failed =
      ParallelForFirstError(exec, cell_scores.size(), [&](size_t c) -> Status {
        // Cell boundary = cancellation boundary: a fired token fails this
        // cell (and so skips every later one) instead of interrupting a
        // clustering run mid-flight. Builds that publish into the shared
        // cache strip the token, so granularity stays here.
        CVCP_RETURN_IF_ERROR(exec.cancel.Check());
        const int param = param_grid[c / n_folds];
        const size_t f = c % n_folds;
        // Fork() never consumes parent state, so each cell's stream is a
        // pure function of (param, fold).
        Rng cell_rng = rng->Fork((static_cast<uint64_t>(param) << 20) | f);
        CVCP_ASSIGN_OR_RETURN(
            Clustering clustering,
            clusterer.Cluster(data, train[f], param, &cell_rng,
                              ClusterContext{cache, exec, &memos[f]}));
        cell_scores[c] = EvaluateConstraintClassification(
                             clustering, folds[f].test_constraints)
                             .average;
        return Status::OK();
      });
  // A fired token may have made the fan-out skip cells without any of
  // them failing (lanes stop claiming); re-check it ahead of the cells'
  // error so a cancelled sweep never returns partially-scored folds.
  // Cancellation is sticky, so this also wins deterministically over any
  // cell error when both are present.
  CVCP_RETURN_IF_ERROR(exec.cancel.Check());
  CVCP_RETURN_IF_ERROR(failed);

  std::vector<CvScore> scores(param_grid.size());
  for (size_t g = 0; g < param_grid.size(); ++g) {
    CvScore& score = scores[g];
    score.fold_scores.reserve(n_folds);
    double sum = 0.0;
    for (size_t f = 0; f < n_folds; ++f) {
      const double fold_score = cell_scores[g * n_folds + f];
      score.fold_scores.push_back(fold_score);
      if (!std::isnan(fold_score)) {
        sum += fold_score;
        ++score.valid_folds;
      }
    }
    score.mean_f = score.valid_folds > 0
                       ? sum / static_cast<double>(score.valid_folds)
                       : std::numeric_limits<double>::quiet_NaN();
  }
  return scores;
}

}  // namespace cvcp
