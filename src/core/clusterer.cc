#include "core/clusterer.h"

#include <optional>
#include <utility>

#include "common/check.h"
#include "core/dataset_cache.h"

namespace cvcp {

std::shared_ptr<const MpckSetup> SupervisionMemo::Mpck() {
  {
    MutexLock lock(&mu_);
    if (mpck_ != nullptr) return mpck_;
  }
  // Prepared outside the lock; the first publisher wins.
  std::shared_ptr<const MpckSetup> built =
      PrepareMpckMeans(points_, constraints_);
  MutexLock lock(&mu_);
  if (mpck_ == nullptr) mpck_ = std::move(built);
  return mpck_;
}

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
    const ClusterContext& context) const {
  MpckMeansConfig config = base_;
  config.k = param;
  // The setup comes from the supervision's memo — one private to this
  // call when none is shared — so a grid prepares it once per supervision
  // instead of once per k.
  std::optional<SupervisionMemo> own;
  SupervisionMemo* memo = context.supervision;
  if (memo == nullptr) {
    memo = &own.emplace(data.points(), supervision.constraints());
  }
  CVCP_CHECK(memo->Serves(data.points(), supervision.constraints()));
  CVCP_ASSIGN_OR_RETURN(MpckMeansResult result,
                        RunMpckMeans(*memo->Mpck(), config, rng));
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
