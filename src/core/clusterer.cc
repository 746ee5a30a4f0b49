#include "core/clusterer.h"

#include <optional>

#include "core/dataset_cache.h"

namespace cvcp {

void SemiSupervisedClusterer::PrewarmCache(const Dataset& data,
                                           std::span<const int> param_grid,
                                           DatasetCache* cache,
                                           const ExecutionContext& exec) const {
  (void)data;
  (void)param_grid;
  (void)cache;
  (void)exec;
}

void FoscOpticsDendClusterer::PrewarmCache(const Dataset& data,
                                           std::span<const int> param_grid,
                                           DatasetCache* cache,
                                           const ExecutionContext& exec) const {
  (void)data;  // the cache already fronts the dataset's points
  if (cache == nullptr) return;
  cache->Prewarm(param_grid, exec);
}

Result<Clustering> FoscOpticsDendClusterer::ExtractWithSupervision(
    const FoscOpticsModel& model, const Supervision& supervision) const {
  CVCP_ASSIGN_OR_RETURN(
      FoscResult fosc,
      ExtractClusters(model.dendrogram, supervision.constraints()));
  return fosc.clustering;
}

Result<Clustering> FoscOpticsDendClusterer::DoCluster(
    const Dataset& data, const Supervision& supervision, int param, Rng* rng,
    const ClusterContext& context) const {
  (void)rng;  // the pipeline is deterministic
  // The supervision-independent model comes from the dataset cache — one
  // private to this call when none is shared — so a shared cache runs
  // OPTICS once per MinPts instead of once per fold×trial.
  std::optional<DatasetCache> own;
  DatasetCache* cache = context.cache;
  if (cache == nullptr) cache = &own.emplace(data.points());
  CVCP_ASSIGN_OR_RETURN(std::shared_ptr<const FoscOpticsModel> model,
                        cache->FoscModel(Metric::kEuclidean, param,
                                         context.exec));
  return ExtractWithSupervision(*model, supervision);
}

Result<Clustering> MpckMeansClusterer::DoCluster(
    const Dataset& data, const Supervision& supervision, int param, Rng* rng,
    const ClusterContext& /*context*/) const {
  MpckMeansConfig config = base_;
  config.k = param;
  CVCP_ASSIGN_OR_RETURN(
      MpckMeansResult result,
      RunMpckMeans(data.points(), supervision.constraints(), config, rng));
  return result.clustering;
}

Result<Clustering> CopKMeansClusterer::DoCluster(
    const Dataset& data, const Supervision& supervision, int param, Rng* rng,
    const ClusterContext& /*context*/) const {
  CopKMeansConfig config = base_;
  config.k = param;
  Result<CopKMeansResult> result =
      RunCopKMeans(data.points(), supervision.constraints(), config, rng);
  if (result.ok()) return std::move(result).value().clustering;
  if (result.status().code() != StatusCode::kInfeasible) {
    return result.status();
  }
  // Hard constraints dead-ended: degrade to unconstrained k-means rather
  // than aborting the whole model-selection sweep.
  KMeansConfig km;
  km.k = param;
  CVCP_ASSIGN_OR_RETURN(KMeansResult fallback,
                        RunKMeans(data.points(), km, rng));
  return fallback.clustering;
}

Result<Clustering> KMeansClusterer::DoCluster(
    const Dataset& data, const Supervision& supervision, int param, Rng* rng,
    const ClusterContext& /*context*/) const {
  (void)supervision;
  KMeansConfig config = base_;
  config.k = param;
  CVCP_ASSIGN_OR_RETURN(KMeansResult result,
                        RunKMeans(data.points(), config, rng));
  return result.clustering;
}

}  // namespace cvcp
