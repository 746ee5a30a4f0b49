#ifndef CVCP_CORE_DATASET_CACHE_H_
#define CVCP_CORE_DATASET_CACHE_H_

/// \file
/// Per-dataset compute cache for the supervision-independent stages of the
/// CVCP pipeline. The paper's protocol runs one dataset through
/// G grid values × F folds × T trials, but the expensive geometry —
/// pairwise distances, OPTICS reachability, the OPTICSDend dendrogram —
/// depends only on (points, param), never on the supervision or the RNG.
/// A `DatasetCache` therefore memoizes:
///
///   * one condensed Euclidean `DistanceMatrix`, built lazily by the
///     first caller (parallel `DistanceMatrix::Compute`) and shared by
///     every CVCP cell, selector sweep, and trial lane that follows;
///   * one `FoscOpticsModel` (OPTICS result + dendrogram) per MinPts
///     — with the cache, `ScoreGridOnFolds` runs
///     OPTICS once per grid value instead of once per (grid value, fold)
///     cell per trial.
///
/// Tiers: the cache fronts up to three levels —
///
///   memory LRU (ShardedLruCache) → disk (ArtifactStore) → compute
///
/// The memory tier is a capacity-bounded sharded LRU keyed by dataset
/// content (see Keys below), so one pool-level cache serves every
/// dataset, trial, and supervision level of a bench run. The optional
/// disk tier persists artifacts across processes: a warm store satisfies
/// model requests with zero OPTICS rebuilds. Both tiers are optional — a
/// bare `DatasetCache(points)` is an unbounded in-memory memo.
///
/// Concurrency model — never block, duplicate on race: a caller that
/// finds its key missing builds the structure itself and the *first*
/// publisher wins; racing losers throw their (bitwise-identical) copy
/// away and adopt the published one. Blocking guards (`std::call_once`,
/// waiting on a shared future) are deliberately NOT used: under the
/// help-while-waiting scheduler (common/parallel.h) a thread that is
/// mid-build may adopt another queued cell, and if that cell blocked on
/// the very build suspended beneath it on the same stack, the process
/// would deadlock. Duplicate-on-race keeps every thread runnable at the
/// cost of at most one redundant build per racing thread on first touch —
/// and because the builds are deterministic, which copy wins is
/// unobservable in the results.
///
/// The cache is the engine's only source of geometry: an entry point
/// handed a null cache (RunCvcp, SelectBySilhouette, a FOSC `Cluster`
/// call) builds one private to that call.
///
/// Determinism contract: the cache returns the *same doubles* as a
/// computation from the points — `DistanceMatrix::Compute` runs the same
/// squared-Euclidean kernel and square root an on-the-fly
/// `EuclideanDistance` scan runs, OPTICS over the matrix is the
/// same algorithm over the same values, and a disk round trip preserves
/// every IEEE-754 bit pattern (block_format.h) — so every report is
/// byte-identical cold or warm, shared or private (pinned against the
/// cache-less oracles of tests/geometry_oracle.h).
///
/// Keys: every memory key and store file name derives from the dataset's
/// content hash and (for models) MinPts — nothing else can change a
/// distance bit. The `Metric` arguments of `Distances` and `FoscModel`
/// are unread (see Metric).
///
/// Lifetime: a cache instance borrows the points matrix and the tier
/// objects; it must not outlive any of them. All methods are thread-safe.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "cluster/dendrogram.h"
#include "cluster/optics.h"
#include "common/distance.h"
#include "common/matrix.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "common/sharded_cache.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/artifact_store.h"

namespace cvcp {

/// The supervision-independent model of one FOSC-OPTICSDend run: the
/// OPTICS cluster ordering and the reachability dendrogram built from it.
/// Identical for every fold and trial at the same MinPts, which
/// is exactly what makes it cacheable: constraints only enter at the FOSC
/// extraction stage (see FoscOpticsDendClusterer::ExtractWithSupervision).
struct FoscOpticsModel {
  OpticsResult optics;
  Dendrogram dendrogram;
};

/// The storage tiers behind a DatasetCache, both optional and borrowed.
/// Null `memory` gives the cache a private unbounded LRU (the original
/// per-dataset memo semantics); null `store` disables persistence.
struct DatasetCacheTiers {
  ShardedLruCache* memory = nullptr;
  ArtifactStore* store = nullptr;
};

/// Thread-safe, lazily-built cache of per-dataset structures. One
/// instance per dataset; shared by reference across every fold, grid
/// value, and trial that clusters that dataset.
class DatasetCache {
 public:
  /// Borrows `points` (no copy) and the tier objects. The cache must not
  /// outlive them. Hashes the dataset content once, up front — that hash
  /// keys every artifact in both tiers.
  explicit DatasetCache(const Matrix& points, DatasetCacheTiers tiers = {});

  DatasetCache(const DatasetCache&) = delete;
  DatasetCache& operator=(const DatasetCache&) = delete;

  const Matrix& points() const { return *points_; }

  /// The dataset's content hash — the cross-process artifact key.
  uint64_t content_hash() const { return content_hash_; }

  /// The condensed pairwise Euclidean distance matrix. Resolution
  /// order: memory LRU, then disk store, then `DistanceMatrix::Compute` on
  /// `exec.threads` workers (publishing to both tiers). Racing first-touch
  /// callers each resolve independently and the first publisher wins (see
  /// file comment). The returned pointer keeps the matrix alive
  /// independent of the cache.
  std::shared_ptr<const DistanceMatrix> Distances(
      Metric, const ExecutionContext& exec);

  /// The memoized FOSC-OPTICSDend model for `min_pts`: OPTICS over
  /// the cached distance matrix plus the dendrogram. The disk tier stores
  /// only the OPTICS stage; the dendrogram is rebuilt deterministically on
  /// load. Build errors (e.g. min_pts out of range) are memoized
  /// per-dataset — never persisted — so every caller sees exactly the
  /// status `RunOptics` returns.
  Result<std::shared_ptr<const FoscOpticsModel>> FoscModel(
      Metric, int min_pts, const ExecutionContext& exec);

  /// Resolves every grid model up front, so the trial fan-out that
  /// follows only ever hits: first from memory, then from the store in
  /// one fan-out; only if a model is still missing does it fetch the
  /// distance matrix and build the missing models in one G-wide
  /// `ParallelFor`. After such a build, when the store holds the matrix,
  /// the matrix leaves the memory tier — the grid's models no longer read
  /// it, and a later `Distances()` caller reloads identical bits from
  /// disk. Per-param build errors are memoized exactly as a lazy first
  /// call would memoize them and do not abort the warm-up.
  void Prewarm(std::span<const int> min_pts_grid,
               const ExecutionContext& exec);

  /// Cache effectiveness counters (for the bench_micro cache table). A
  /// "build" is a call that actually computed the structure — under a
  /// first-touch race several callers may resolve the same key, so builds
  /// can exceed the number of distinct keys; a "load" resolved from the
  /// disk tier; a "hit" was served from the memory tier (or the error
  /// memo). `model_builds` counts only successful OPTICS builds; failed
  /// ones count under `model_errors`. Wall times are summed per stage
  /// (every computed build counts, including racing duplicates).
  struct Stats {
    uint64_t distance_builds = 0;
    uint64_t distance_loads = 0;
    uint64_t distance_hits = 0;
    uint64_t model_builds = 0;
    uint64_t model_loads = 0;
    uint64_t model_hits = 0;
    uint64_t model_errors = 0;
    double distance_build_ms = 0.0;
    double distance_load_ms = 0.0;
    double model_build_ms = 0.0;
    double model_load_ms = 0.0;
  };
  Stats stats() const;

 private:
  using ModelPtr = std::shared_ptr<const FoscOpticsModel>;

  /// Memory-tier keys.
  std::string DistanceKey() const;
  std::string ModelKey(int min_pts) const;

  /// The model (or memoized build error) from memory, counting a hit;
  /// nullopt when neither holds the key.
  std::optional<Result<ModelPtr>> ResidentModel(const std::string& key,
                                                int min_pts);
  /// The model loaded from the store and published, counting a load;
  /// null on any miss (counted by the store).
  ModelPtr StoredModel(const std::string& key, int min_pts);
  /// Runs OPTICS over the matrix and publishes the model (first
  /// publisher wins, and only it persists); memoizes a build error.
  Result<ModelPtr> BuildModel(const std::string& key, int min_pts,
                              const ExecutionContext& exec);

  const Matrix* points_;
  uint64_t content_hash_;
  ShardedLruCache* memory_;  ///< points at `owned_memory_` when not shared
  ArtifactStore* store_;
  std::unique_ptr<ShardedLruCache> owned_memory_;

  // Error memo: per-dataset, unbounded (a handful of bad params at most),
  // deliberately outside the LRU so an eviction can never flip an errored
  // key back to a rebuild with different stats. Keyed by MinPts.
  mutable Mutex mu_;
  std::map<int, Status> model_errors_memo_ GUARDED_BY(mu_);
  // Distance keys this front-end loaded from, or saved to, the store.
  std::set<std::string> persisted_distances_ GUARDED_BY(mu_);

  std::atomic<uint64_t> distance_builds_{0};
  std::atomic<uint64_t> distance_loads_{0};
  std::atomic<uint64_t> distance_hits_{0};
  std::atomic<uint64_t> model_builds_{0};
  std::atomic<uint64_t> model_loads_{0};
  std::atomic<uint64_t> model_hits_{0};
  std::atomic<uint64_t> model_errors_{0};
  // Wall-time accumulators share mu_ (only touched around builds/loads).
  double distance_build_ms_ GUARDED_BY(mu_) = 0.0;
  double distance_load_ms_ GUARDED_BY(mu_) = 0.0;
  double model_build_ms_ GUARDED_BY(mu_) = 0.0;
  double model_load_ms_ GUARDED_BY(mu_) = 0.0;
};

/// One memory tier + one optional disk tier shared by every dataset of a
/// bench run: `For(points)` lazily creates the per-dataset front-end, so
/// trials at different supervision levels — and different datasets of an
/// ALOI collection — reuse each other's geometry up to the capacity
/// bound. Borrows the datasets (keyed by matrix address): every Matrix
/// passed to `For` must outlive the pool.
class DatasetCachePool {
 public:
  /// `memory_capacity_bytes` bounds the shared LRU; `store` (borrowed,
  /// may be null) enables the disk tier.
  explicit DatasetCachePool(size_t memory_capacity_bytes,
                            ArtifactStore* store = nullptr);

  DatasetCachePool(const DatasetCachePool&) = delete;
  DatasetCachePool& operator=(const DatasetCachePool&) = delete;

  /// The cache fronting `points`, created on first use. Thread-safe;
  /// stable for the pool's lifetime.
  DatasetCache* For(const Matrix& points);

  ArtifactStore* store() const { return store_; }
  const ShardedLruCache& memory() const { return memory_; }

  /// Sum of every per-dataset cache's counters.
  DatasetCache::Stats AggregateStats() const;

 private:
  ShardedLruCache memory_;
  ArtifactStore* store_;
  mutable Mutex mu_;
  std::map<const Matrix*, std::unique_ptr<DatasetCache>> caches_
      GUARDED_BY(mu_);
};

}  // namespace cvcp

#endif  // CVCP_CORE_DATASET_CACHE_H_
