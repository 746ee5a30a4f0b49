#include "core/dataset_cache.h"

#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "common/strings.h"

namespace cvcp {

namespace {

double MsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

size_t DistanceCharge(const DistanceMatrix& dm) {
  return dm.MemoryBytes() + sizeof(DistanceMatrix);
}

size_t ModelCharge(const FoscOpticsModel& model) {
  // order + reachability + core_distance, plus a per-point estimate for
  // the dendrogram's nodes (exact size is private to Dendrogram; the
  // charge only has to be the right order of magnitude for eviction).
  const size_t n = model.optics.order.size();
  return n * 3 * sizeof(double) + n * 80 + sizeof(FoscOpticsModel);
}

}  // namespace

DatasetCache::DatasetCache(const Matrix& points, DatasetCacheTiers tiers)
    : points_(&points),
      content_hash_(HashMatrixContent(points)),
      memory_(tiers.memory),
      store_(tiers.store) {
  if (memory_ == nullptr) {
    // Private unbounded tier: the original per-dataset memo semantics.
    owned_memory_ = std::make_unique<ShardedLruCache>(
        std::numeric_limits<size_t>::max(), /*num_shards=*/4);
    memory_ = owned_memory_.get();
  }
}

std::shared_ptr<const DistanceMatrix> DatasetCache::Distances(
    Metric, const ExecutionContext& exec) {
  const std::string key = DistanceKey();
  if (auto resident = memory_->LookupAs<DistanceMatrix>(key)) {
    distance_hits_.fetch_add(1, std::memory_order_relaxed);
    return resident;
  }
  // Key not resident: resolve without holding any lock (the build may fan
  // out on the pool) and without ever waiting on another thread's
  // in-flight resolution — see the deadlock rationale in the header.
  // First publisher wins; a racing duplicate is bitwise-identical and
  // discarded.
  if (store_ != nullptr) {
    const auto start = std::chrono::steady_clock::now();
    Result<DistanceMatrix> loaded = store_->LoadDistances(content_hash_);
    if (loaded.ok()) {
      auto value = std::make_shared<const DistanceMatrix>(
          std::move(loaded).value());
      const size_t charge = DistanceCharge(*value);
      auto published = std::static_pointer_cast<const DistanceMatrix>(
          memory_->InsertOrGet(key, value, charge));
      const double ms = MsSince(start);
      distance_loads_.fetch_add(1, std::memory_order_relaxed);
      MutexLock lock(&mu_);
      distance_load_ms_ += ms;
      persisted_distances_.insert(key);
      return published;
    }
    // Any load failure (cold key, corruption, version skew) was counted
    // by the store; fall through to compute.
  }
  const auto start = std::chrono::steady_clock::now();
  auto built = std::make_shared<const DistanceMatrix>(
      DistanceMatrix::Compute(*points_, Metric::kEuclidean, exec));
  const double ms = MsSince(start);
  const size_t charge = DistanceCharge(*built);
  auto published = std::static_pointer_cast<const DistanceMatrix>(
      memory_->InsertOrGet(key, built, charge));
  distance_builds_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(&mu_);
    distance_build_ms_ += ms;
  }
  // Persist only from the winning publisher, so racing builders do not
  // queue redundant (byte-identical) writes.
  if (store_ != nullptr && published == built &&
      store_->SaveDistances(content_hash_, *published).ok()) {
    MutexLock lock(&mu_);
    persisted_distances_.insert(key);
  }
  return published;
}

std::string DatasetCache::DistanceKey() const {
  return Format("%016llx-dist", static_cast<unsigned long long>(content_hash_));
}

std::string DatasetCache::ModelKey(int min_pts) const {
  return Format("%016llx-mp%d-model",
                static_cast<unsigned long long>(content_hash_), min_pts);
}

DatasetCache::ModelPtr DatasetCache::ResidentModel(const std::string& key) {
  ModelPtr resident = memory_->LookupAs<FoscOpticsModel>(key);
  if (resident) model_hits_.fetch_add(1, std::memory_order_relaxed);
  return resident;
}

DatasetCache::ModelPtr DatasetCache::StoredModel(const std::string& key,
                                                 int min_pts) {
  if (store_ == nullptr) return nullptr;
  const auto start = std::chrono::steady_clock::now();
  Result<OpticsResult> loaded =
      store_->LoadOpticsModel(content_hash_, min_pts);
  if (!loaded.ok()) return nullptr;
  auto model = std::make_shared<FoscOpticsModel>();
  model->optics = std::move(loaded).value();
  // The dendrogram is a deterministic pure function of the OPTICS
  // result, so rebuilding it here reproduces the computed-path bytes.
  model->dendrogram = Dendrogram::FromReachability(model->optics);
  ModelPtr value(std::move(model));
  auto published = std::static_pointer_cast<const FoscOpticsModel>(
      memory_->InsertOrGet(key, value, ModelCharge(*value)));
  const double ms = MsSince(start);
  model_loads_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(&mu_);
  model_load_ms_ += ms;
  return published;
}

DatasetCache::ModelPtr DatasetCache::BuildModel(
    const std::string& key, int min_pts, const ExecutionContext& exec) {
  // The distance build is *not* part of the model wall time: it is shared
  // by every param and reported as its own stage.
  const std::shared_ptr<const DistanceMatrix> distances =
      Distances(Metric::kEuclidean, exec);
  const auto start = std::chrono::steady_clock::now();
  OpticsConfig config;
  config.min_pts = min_pts;
  Result<OpticsResult> optics = RunOptics(*distances, config);
  CVCP_CHECK(optics.ok());  // callers validated min_pts
  auto model = std::make_shared<FoscOpticsModel>();
  model->optics = std::move(optics).value();
  model->dendrogram = Dendrogram::FromReachability(model->optics);
  ModelPtr built(std::move(model));
  const double ms = MsSince(start);
  auto published = std::static_pointer_cast<const FoscOpticsModel>(
      memory_->InsertOrGet(key, built, ModelCharge(*built)));
  model_builds_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(&mu_);
    model_build_ms_ += ms;
  }
  if (store_ != nullptr && published == built) {
    store_->SaveOpticsModel(content_hash_, min_pts, published->optics);
  }
  return published;
}

Result<std::shared_ptr<const FoscOpticsModel>> DatasetCache::FoscModel(
    Metric, int min_pts, const ExecutionContext& exec) {
  CVCP_RETURN_IF_ERROR(ValidateMinPts(min_pts, points_->rows()));
  const std::string key = ModelKey(min_pts);
  if (ModelPtr resident = ResidentModel(key)) return resident;
  if (ModelPtr stored = StoredModel(key, min_pts)) return stored;
  return BuildModel(key, min_pts, exec);
}

void DatasetCache::Prewarm(std::span<const int> min_pts_grid,
                           const ExecutionContext& exec) {
  // Memory first: a resident grid costs G lookups and no fan-out.
  // Out-of-range values have no model to warm.
  std::vector<int> absent;
  for (int min_pts : min_pts_grid) {
    if (ValidateMinPts(min_pts, points_->rows()).ok() &&
        !ResidentModel(ModelKey(min_pts))) {
      absent.push_back(min_pts);
    }
  }
  if (absent.empty()) return;
  // Each lane runs serially inside; only the thread budget drops to 1.
  ExecutionContext serial = exec;
  serial.threads = 1;
  // Then the store. Only models it cannot serve need the matrix.
  std::vector<char> loaded(absent.size(), 0);
  if (store_ != nullptr) {
    ParallelFor(exec, absent.size(), [&](size_t i) {
      loaded[i] = StoredModel(ModelKey(absent[i]), absent[i]) != nullptr;
    });
  }
  std::vector<int> missing;
  for (size_t i = 0; i < absent.size(); ++i) {
    if (!loaded[i]) missing.push_back(absent[i]);
  }
  if (missing.empty() || exec.cancel.Cancelled()) return;
  // Build the rest over one matrix, one lane per grid value. A lane that
  // finds its model published meanwhile (a racing job) adopts it.
  const std::string distance_key = DistanceKey();
  {
    const std::shared_ptr<const DistanceMatrix> distances =
        Distances(Metric::kEuclidean, exec);
    ParallelFor(exec, missing.size(), [&](size_t i) {
      const std::string key = ModelKey(missing[i]);
      if (!ResidentModel(key)) BuildModel(key, missing[i], serial);
    });
  }
  // The grid's models no longer need the matrix. When the store holds
  // it, drop it from memory: a later caller (silhouette) reloads the
  // same bits from disk, and the LRU keeps its budget for models.
  bool persisted = false;
  {
    MutexLock lock(&mu_);
    persisted = persisted_distances_.count(distance_key) > 0;
  }
  if (persisted) memory_->Erase(distance_key);
}

DatasetCache::Stats DatasetCache::stats() const {
  Stats out;
  out.distance_builds = distance_builds_.load(std::memory_order_relaxed);
  out.distance_loads = distance_loads_.load(std::memory_order_relaxed);
  out.distance_hits = distance_hits_.load(std::memory_order_relaxed);
  out.model_builds = model_builds_.load(std::memory_order_relaxed);
  out.model_loads = model_loads_.load(std::memory_order_relaxed);
  out.model_hits = model_hits_.load(std::memory_order_relaxed);
  MutexLock lock(&mu_);
  out.distance_build_ms = distance_build_ms_;
  out.distance_load_ms = distance_load_ms_;
  out.model_build_ms = model_build_ms_;
  out.model_load_ms = model_load_ms_;
  return out;
}

DatasetCachePool::DatasetCachePool(size_t memory_capacity_bytes,
                                   ArtifactStore* store)
    : memory_(memory_capacity_bytes), store_(store) {}

DatasetCache* DatasetCachePool::For(const Matrix& points) {
  MutexLock lock(&mu_);
  auto it = caches_.find(&points);
  if (it == caches_.end()) {
    it = caches_
             .emplace(&points,
                      std::make_unique<DatasetCache>(
                          points, DatasetCacheTiers{&memory_, store_}))
             .first;
  }
  return it->second.get();
}

DatasetCache::Stats DatasetCachePool::AggregateStats() const {
  DatasetCache::Stats out;
  MutexLock lock(&mu_);
  for (const auto& [points, cache] : caches_) {
    const DatasetCache::Stats s = cache->stats();
    out.distance_builds += s.distance_builds;
    out.distance_loads += s.distance_loads;
    out.distance_hits += s.distance_hits;
    out.model_builds += s.model_builds;
    out.model_loads += s.model_loads;
    out.model_hits += s.model_hits;
    out.distance_build_ms += s.distance_build_ms;
    out.distance_load_ms += s.distance_load_ms;
    out.model_build_ms += s.model_build_ms;
    out.model_load_ms += s.model_load_ms;
  }
  return out;
}

}  // namespace cvcp
