#include "core/cross_validation.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "core/fmeasure.h"

namespace cvcp {

namespace {

/// One materialized (param, fold) clustering job.
struct CvCell {
  int param = 0;
  size_t fold = 0;
  Rng rng;  ///< pre-forked; identical to the serial loop's fork
};

/// What a cell job produces. `score` is the fold's constraint F-measure
/// (NaN when the fold had no test constraints); a non-OK `status` marks a
/// failed clustering run.
struct CvCellResult {
  Status status;
  double score = std::numeric_limits<double>::quiet_NaN();
};

/// Supervision size of a fold for the cost estimate: labeled training
/// objects in Scenario I, training constraints in Scenario II.
size_t FoldTrainSize(const FoldSplit& fold) {
  return fold.train_labels.empty() ? fold.train_constraints.size()
                                   : fold.train_objects.size();
}

/// The longest-first execution permutation of the cell list: cells sorted
/// by descending EstimateCellCost. stable_sort keeps equal-cost cells in
/// canonical (grid-order, fold-order) — the permutation is a pure function
/// of the inputs, never of wall clock or scheduling.
std::vector<size_t> CostSortedOrder(const std::vector<CvCell>& cells,
                                    const std::vector<FoldSplit>& folds) {
  std::vector<size_t> order(cells.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<double> estimate(cells.size());
  for (size_t c = 0; c < cells.size(); ++c) {
    estimate[c] = EstimateCellCost(cells[c].param,
                                   FoldTrainSize(folds[cells[c].fold]));
  }
  std::stable_sort(order.begin(), order.end(), [&estimate](size_t a,
                                                           size_t b) {
    return estimate[a] > estimate[b];
  });
  return order;
}

}  // namespace

double EstimateCellCost(int param, size_t train_size) {
  const double magnitude = param < 0 ? -static_cast<double>(param)
                                     : static_cast<double>(param);
  return (static_cast<double>(train_size) + 1.0) * (magnitude + 1.0);
}

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
  const size_t n_cells = param_grid.size() * n_folds;
  // Already cancelled or past deadline: fail before materializing cells.
  CVCP_RETURN_IF_ERROR(exec.cancel.Check());

  // Materialize the grid×fold job list, pre-forking each cell's RNG in the
  // order the serial loop forks them. Fork() never consumes parent state,
  // so the cell streams are identical to serial execution's.
  std::vector<CvCell> cells;
  cells.reserve(n_cells);
  for (int param : param_grid) {
    for (size_t f = 0; f < n_folds; ++f) {
      cells.push_back(CvCell{
          param, f, rng->Fork((static_cast<uint64_t>(param) << 20) | f)});
    }
  }

  // Training supervision, derived once per fold and shared read-only by
  // the fold's cells (label derivation is O(L^2) in the labeled objects).
  std::vector<Supervision> train;
  train.reserve(n_folds);
  for (const FoldSplit& fold : folds) {
    train.push_back(kind == SupervisionKind::kLabels
                        ? Supervision::FromLabelArray(fold.train_labels)
                        : Supervision::FromConstraints(fold.train_constraints));
  }

  std::vector<CvCellResult> results(n_cells);
  // Any error discards all scores, so cells above the lowest failure are
  // skipped (see FirstErrorTracker for why that preserves which error the
  // in-order reduction returns).
  FirstErrorTracker first_error(n_cells);
  auto run_cell = [&](size_t c) {
    if (first_error.ShouldSkip(c)) return;
    // Cell boundary = cancellation boundary: a fired token fails this
    // cell (and, via the tracker, skips every later one) instead of
    // interrupting a clustering run mid-flight. Builds that publish into
    // the shared cache strip the token, so granularity stays here.
    const Status interrupted = exec.cancel.Check();
    if (!interrupted.ok()) {
      results[c].status = interrupted;
      first_error.Record(c);
      return;
    }
    const CvCell& cell = cells[c];
    const FoldSplit& fold = folds[cell.fold];
    Rng cell_rng = cell.rng;
    Result<Clustering> clustering =
        clusterer.Cluster(data, train[cell.fold], cell.param, &cell_rng,
                          ClusterContext{cache, exec});
    CvCellResult& out = results[c];
    if (clustering.ok()) {
      out.score =
          EvaluateConstraintClassification(clustering.value(),
                                           fold.test_constraints)
              .average;
    } else {
      out.status = clustering.status();
      first_error.Record(c);
    }
  };

  if (exec.ResolvedThreads() <= 1) {
    // Exact serial path: cells in (grid-order, fold-order), stopping at the
    // first error like the pre-scheduler loop did.
    for (size_t c = 0; c < n_cells; ++c) {
      run_cell(c);
      if (!results[c].status.ok()) break;
    }
  } else {
    // Longest-first execution: no expensive cell starts late and stretches
    // the fan-out's tail. Execution order is free to change — every cell
    // still writes its own slot, FirstErrorTracker never skips below the
    // lowest failure, and the reduction below stays in cell order — so
    // the report is bit-identical to any other schedule.
    const std::vector<size_t> order = CostSortedOrder(cells, folds);
    ParallelFor(exec, n_cells, [&](size_t k) { run_cell(order[k]); });
  }

  // A fired token may have made ParallelFor skip cells without any lane
  // recording a status (lanes stop claiming); re-check it before the
  // reduction so a cancelled sweep never returns partially-scored folds.
  // Cancellation is sticky, so this also wins deterministically over any
  // cell error when both are present.
  CVCP_RETURN_IF_ERROR(exec.cancel.Check());

  // Deterministic reduction: first error in cell order wins, matching what
  // the serial loop would have returned.
  for (const CvCellResult& result : results) {
    if (!result.status.ok()) return result.status;
  }

  std::vector<CvScore> scores(param_grid.size());
  for (size_t g = 0; g < param_grid.size(); ++g) {
    CvScore& score = scores[g];
    score.fold_scores.reserve(n_folds);
    double sum = 0.0;
    for (size_t f = 0; f < n_folds; ++f) {
      const double fold_score = results[g * n_folds + f].score;
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
