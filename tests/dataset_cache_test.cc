// Unit tests for the per-dataset compute cache: lazy builds, memo hits,
// models keyed by MinPts, out-of-range MinPts failing before any build,
// the prewarm's tier order and store-backed matrix drop, geometry shared
// across a pool's front-ends, and safety under concurrent access (the
// concurrency tests double as TSan targets). The cache never blocks —
// first-touch races duplicate the build and the first publisher wins —
// so the concurrency assertions are on convergence (everyone ends up
// with the published object) rather than on exactly-one build.

#include "core/dataset_cache.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cluster/optics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "data/generators.h"

namespace cvcp {
namespace {

Matrix FixturePoints(size_t n) {
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    rows.push_back({x * 1.3 - 2.0, 0.02 * x * x, 17.0 - x});
  }
  return Matrix::FromRows(rows);
}

TEST(DatasetCacheTest, DistancesBuiltOnceAndMatchDirectCompute) {
  Matrix points = FixturePoints(20);
  DatasetCache cache(points);
  const auto first =
      cache.Distances(Metric::kEuclidean, ExecutionContext::Serial());
  const auto second =
      cache.Distances(Metric::kEuclidean, ExecutionContext::Serial());
  EXPECT_EQ(first.get(), second.get());  // one build, shared object

  const DistanceMatrix direct =
      DistanceMatrix::Compute(points, Metric::kEuclidean);
  ASSERT_EQ(first->n(), direct.n());
  for (size_t i = 0; i < direct.n(); ++i) {
    for (size_t j = 0; j < direct.n(); ++j) {
      EXPECT_EQ(std::bit_cast<uint64_t>((*first)(i, j)),
                std::bit_cast<uint64_t>(direct(i, j)))
          << i << "," << j;
    }
  }

  const DatasetCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.distance_builds, 1u);
  EXPECT_EQ(stats.distance_hits, 1u);
  EXPECT_GE(stats.distance_build_ms, 0.0);
}

TEST(DatasetCacheTest, MatrixOutlivesReleasedCacheEntry) {
  Matrix points = FixturePoints(8);
  std::shared_ptr<const DistanceMatrix> kept;
  {
    DatasetCache cache(points);
    kept = cache.Distances(Metric::kEuclidean, ExecutionContext::Serial());
  }
  // The shared_ptr keeps the matrix alive past the cache's lifetime.
  EXPECT_EQ(kept->n(), 8u);
  EXPECT_GT((*kept)(0, 7), 0.0);
}

TEST(DatasetCacheTest, FoscModelMemoizedAndIdenticalToDirectOptics) {
  Matrix points = FixturePoints(30);
  DatasetCache cache(points);
  auto first = cache.FoscModel(Metric::kEuclidean, 4,
                               ExecutionContext::Serial());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = cache.FoscModel(Metric::kEuclidean, 4,
                                ExecutionContext::Serial());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get());  // same model object

  // The cached model is the exact OPTICS result the uncached
  // points-overload computes: same ordering, bit-identical reachability
  // and core distances.
  OpticsConfig config;
  config.min_pts = 4;
  auto direct = RunOptics(points, config);
  ASSERT_TRUE(direct.ok());
  const OpticsResult& cached = first.value()->optics;
  EXPECT_EQ(cached.order, direct->order);
  ASSERT_EQ(cached.reachability.size(), direct->reachability.size());
  for (size_t i = 0; i < cached.reachability.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(cached.reachability[i]),
              std::bit_cast<uint64_t>(direct->reachability[i]))
        << "position " << i;
  }
  ASSERT_EQ(cached.core_distance.size(), direct->core_distance.size());
  for (size_t i = 0; i < cached.core_distance.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(cached.core_distance[i]),
              std::bit_cast<uint64_t>(direct->core_distance[i]))
        << "object " << i;
  }
  EXPECT_EQ(first.value()->dendrogram.num_objects(), points.rows());

  const DatasetCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.model_builds, 1u);
  EXPECT_EQ(stats.model_hits, 1u);
  EXPECT_EQ(stats.distance_builds, 1u);  // the model build shares it
}

TEST(DatasetCacheTest, ModelsKeyedByMinPts) {
  Matrix points = FixturePoints(15);
  DatasetCache cache(points);
  auto a = cache.FoscModel(Metric::kEuclidean, 2, ExecutionContext::Serial());
  auto b = cache.FoscModel(Metric::kEuclidean, 5, ExecutionContext::Serial());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value().get(), b.value().get());
  const DatasetCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.model_builds, 2u);
  EXPECT_EQ(stats.distance_builds, 1u);  // shared across params
  EXPECT_EQ(stats.distance_hits, 1u);
}

TEST(DatasetCacheTest, OutOfRangeMinPtsFailsBeforeAnyBuild) {
  Matrix points = FixturePoints(5);
  DatasetCache cache(points);
  // min_pts > n: the cache returns exactly the status RunOptics returns,
  // on every call, without building the distance matrix first.
  OpticsConfig config;
  config.min_pts = 99;
  const Status direct = RunOptics(points, config).status();
  ASSERT_FALSE(direct.ok());
  auto first =
      cache.FoscModel(Metric::kEuclidean, 99, ExecutionContext::Serial());
  auto second =
      cache.FoscModel(Metric::kEuclidean, 99, ExecutionContext::Serial());
  EXPECT_EQ(first.status(), direct);
  EXPECT_EQ(second.status(), direct);
  // Prewarm skips the value instead of building for it.
  const std::vector<int> grid = {99};
  cache.Prewarm(grid, ExecutionContext::Serial());
  EXPECT_EQ(cache.stats().model_builds, 0u);
  EXPECT_EQ(cache.stats().distance_builds, 0u);
}

std::string FreshDir(const char* name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "cvcp_prewarm" / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(DatasetCacheTest, ColdPrewarmWithStoreKeepsModelsAndDropsTheMatrix) {
  Matrix points = FixturePoints(30);
  const std::vector<int> grid = {3, 4, 6};
  ExecutionContext exec;
  exec.threads = 4;
  ArtifactStore store(FreshDir("drop"));
  ShardedLruCache memory(/*capacity_bytes=*/64 * 1024 * 1024);
  DatasetCache cache(points, DatasetCacheTiers{&memory, &store});
  cache.Prewarm(grid, exec);
  EXPECT_EQ(cache.stats().distance_builds, 1u);
  EXPECT_EQ(cache.stats().model_builds, grid.size());
  // Only the G models stay resident: the store holds the matrix.
  EXPECT_EQ(memory.stats().entries, grid.size());
  for (int min_pts : grid) {
    ASSERT_TRUE(cache.FoscModel(Metric::kEuclidean, min_pts, exec).ok());
  }
  EXPECT_EQ(cache.stats().model_hits, grid.size());

  // Without a store the matrix is the only copy, so it stays.
  ShardedLruCache memory_only(/*capacity_bytes=*/64 * 1024 * 1024);
  DatasetCache unstored(points, DatasetCacheTiers{&memory_only, nullptr});
  unstored.Prewarm(grid, exec);
  EXPECT_EQ(memory_only.stats().entries, grid.size() + 1);
}

TEST(DatasetCacheTest, WarmStorePrewarmNeedsNoDistances) {
  Matrix points = FixturePoints(30);
  const std::vector<int> grid = {3, 4, 6};
  ArtifactStore store(FreshDir("warm"));
  {
    DatasetCache cold(points, DatasetCacheTiers{nullptr, &store});
    cold.Prewarm(grid, ExecutionContext::Serial());
  }
  DatasetCache warm(points, DatasetCacheTiers{nullptr, &store});
  warm.Prewarm(grid, ExecutionContext::Serial());
  const DatasetCache::Stats stats = warm.stats();
  EXPECT_EQ(stats.model_loads, grid.size());
  EXPECT_EQ(stats.model_builds, 0u);
  EXPECT_EQ(stats.distance_builds, 0u);
  EXPECT_EQ(stats.distance_loads, 0u);
  EXPECT_EQ(stats.distance_hits, 0u);
}

TEST(DatasetCacheTest, DistancesAfterTheDropReloadIdenticalBits) {
  Matrix points = FixturePoints(30);
  const std::vector<int> grid = {3, 5};
  ArtifactStore store(FreshDir("reload"));
  DatasetCache cache(points, DatasetCacheTiers{nullptr, &store});
  cache.Prewarm(grid, ExecutionContext::Serial());
  const auto reloaded =
      cache.Distances(Metric::kEuclidean, ExecutionContext::Serial());
  EXPECT_EQ(cache.stats().distance_builds, 1u);
  EXPECT_EQ(cache.stats().distance_loads, 1u);
  const DistanceMatrix direct =
      DistanceMatrix::Compute(points, Metric::kEuclidean);
  ASSERT_EQ(reloaded->condensed().size(), direct.condensed().size());
  EXPECT_EQ(std::memcmp(reloaded->condensed().data(),
                        direct.condensed().data(), direct.MemoryBytes()),
            0);
}

TEST(DatasetCachePoolTest, SharesGeometryAcrossCacheFrontEnds) {
  Matrix points = FixturePoints(20);
  DatasetCachePool pool(/*memory_capacity_bytes=*/64 * 1024 * 1024);
  DatasetCache* a = pool.For(points);
  DatasetCache* b = pool.For(points);
  EXPECT_EQ(a, b);  // same matrix address -> same front-end

  const auto built = a->Distances(Metric::kEuclidean,
                                  ExecutionContext::Serial());
  const auto reused = b->Distances(Metric::kEuclidean,
                                   ExecutionContext::Serial());
  EXPECT_EQ(built.get(), reused.get());

  // A bitwise-identical copy of the points is a *different* front-end but
  // hashes to the same content key, so it reuses the resident artifact
  // instead of rebuilding — the cross-supervision-level sharing the pool
  // exists for.
  Matrix copy = FixturePoints(20);
  DatasetCache* c = pool.For(copy);
  EXPECT_NE(a, c);
  EXPECT_EQ(a->content_hash(), c->content_hash());
  const auto shared = c->Distances(Metric::kEuclidean,
                                   ExecutionContext::Serial());
  EXPECT_EQ(shared.get(), built.get());

  const DatasetCache::Stats stats = pool.AggregateStats();
  EXPECT_EQ(stats.distance_builds, 1u);
  EXPECT_EQ(stats.distance_hits, 2u);
  EXPECT_EQ(pool.memory().stats().entries, 1u);
}

TEST(DatasetCachePoolTest, EvictionRecomputesDeterministically) {
  Matrix points = FixturePoints(25);
  // Capacity far below one condensed matrix: every insert evicts the
  // previous resident, so each request recomputes — results must not
  // change, only the counters.
  DatasetCachePool pool(/*memory_capacity_bytes=*/1);
  DatasetCache* cache = pool.For(points);
  const auto first = cache->Distances(Metric::kEuclidean,
                                      ExecutionContext::Serial());
  const auto second = cache->Distances(Metric::kEuclidean,
                                       ExecutionContext::Serial());
  EXPECT_NE(first.get(), second.get());  // evicted between calls
  ASSERT_EQ(first->n(), second->n());
  for (size_t i = 0; i < first->n(); ++i) {
    for (size_t j = 0; j < first->n(); ++j) {
      EXPECT_EQ(std::bit_cast<uint64_t>((*first)(i, j)),
                std::bit_cast<uint64_t>((*second)(i, j)));
    }
  }
  EXPECT_EQ(pool.AggregateStats().distance_builds, 2u);
  EXPECT_GE(pool.memory().stats().evictions, 1u);
}

TEST(DatasetCacheTest, ConcurrentRequestsConvergeOnOnePublishedObject) {
  Matrix points = FixturePoints(40);
  DatasetCache cache(points);
  ExecutionContext exec;
  exec.threads = 8;
  constexpr size_t kCallers = 16;
  std::vector<std::shared_ptr<const FoscOpticsModel>> models(kCallers);
  std::vector<std::shared_ptr<const DistanceMatrix>> matrices(kCallers);
  ParallelFor(exec, kCallers, [&](size_t i) {
    matrices[i] = cache.Distances(Metric::kEuclidean, exec);
    auto model = cache.FoscModel(Metric::kEuclidean, 3, exec);
    ASSERT_TRUE(model.ok());
    models[i] = model.value();
  });
  // First publisher wins: racing callers may each have built, but every
  // *returned* object is the published one.
  for (size_t i = 1; i < kCallers; ++i) {
    EXPECT_EQ(matrices[i].get(), matrices[0].get());
    EXPECT_EQ(models[i].get(), models[0].get());
  }
  const DatasetCache::Stats stats = cache.stats();
  EXPECT_GE(stats.distance_builds, 1u);
  EXPECT_GE(stats.model_builds, 1u);
  // Every call either built or hit (the model build's internal Distances
  // call adds one distance access).
  EXPECT_EQ(stats.distance_builds + stats.distance_hits,
            kCallers + stats.model_builds);
  EXPECT_EQ(stats.model_builds + stats.model_hits, kCallers);
}

}  // namespace
}  // namespace cvcp
