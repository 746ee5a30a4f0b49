#include "core/selectors.h"

#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "cluster/silhouette.h"
#include "core/dataset_cache.h"

namespace cvcp {

Result<GridSweep> SweepGrid(const Dataset& data,
                            const Supervision& supervision,
                            const SemiSupervisedClusterer& clusterer,
                            std::span<const int> param_grid, Rng* rng,
                            const ClusterContext& context,
                            bool with_silhouettes) {
  std::optional<DatasetCache> own;
  std::optional<SupervisionMemo> own_memo;
  ClusterContext run_context = context;
  if (run_context.cache == nullptr) {
    run_context.cache = &own.emplace(data.points());
  }
  // One memo for the sweep: every grid value clusters with the same
  // supervision.
  if (run_context.supervision == nullptr) {
    run_context.supervision =
        &own_memo.emplace(data.points(), supervision.constraints());
  }
  GridSweep sweep;
  sweep.clusterings.resize(param_grid.size());
  sweep.silhouettes.assign(param_grid.size(),
                           std::numeric_limits<double>::quiet_NaN());
  CVCP_RETURN_IF_ERROR(ParallelForFirstError(
      context.exec, param_grid.size(), [&](size_t gi) -> Status {
        Rng run_rng = rng->Fork(gi);
        CVCP_ASSIGN_OR_RETURN(sweep.clusterings[gi],
                              clusterer.Cluster(data, supervision,
                                                param_grid[gi], &run_rng,
                                                run_context));
        if (with_silhouettes) {
          sweep.silhouettes[gi] = SilhouetteCoefficient(
              *run_context.cache->Distances(Metric::kEuclidean,
                                            run_context.exec),
              sweep.clusterings[gi]);
        }
        return Status::OK();
      }));
  return sweep;
}

Result<SilhouetteSelection> SelectBySilhouette(
    const Dataset& data, const Supervision& supervision,
    const SemiSupervisedClusterer& clusterer, std::span<const int> param_grid,
    Rng* rng, const ClusterContext& context) {
  if (param_grid.empty()) {
    return Status::InvalidArgument(
        "silhouette selection needs a non-empty parameter grid");
  }
  CVCP_ASSIGN_OR_RETURN(GridSweep sweep,
                        SweepGrid(data, supervision, clusterer, param_grid,
                                  rng, context, /*with_silhouettes=*/true));
  const int oracle = OracleIndex(sweep.silhouettes);
  if (oracle < 0) {
    return Status::FailedPrecondition(
        "silhouette undefined for every grid value");
  }
  const size_t best = static_cast<size_t>(oracle);
  SilhouetteSelection sel;
  sel.best_param = param_grid[best];
  sel.best_silhouette = sweep.silhouettes[best];
  sel.best_clustering = std::move(sweep.clusterings[best]);
  sel.silhouettes = std::move(sweep.silhouettes);
  return sel;
}

double ExpectedQuality(std::span<const double> external_scores) {
  double sum = 0.0;
  size_t count = 0;
  for (double s : external_scores) {
    if (!std::isnan(s)) {
      sum += s;
      ++count;
    }
  }
  return count > 0 ? sum / static_cast<double>(count)
                   : std::numeric_limits<double>::quiet_NaN();
}

int OracleIndex(std::span<const double> external_scores) {
  int best = -1;
  double best_score = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < external_scores.size(); ++i) {
    if (!std::isnan(external_scores[i]) && external_scores[i] > best_score) {
      best_score = external_scores[i];
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace cvcp
