// Bitwise-equality suite for the per-dataset compute cache: running
// through a cache — shared or private to the call — must reproduce the
// cache-less oracles in tests/geometry_oracle.h byte for byte —
// CvcpReports, silhouette selections, OPTICS-derived clusterings, and
// whole experiment aggregates — across thread widths. Scores are compared
// through their bit patterns so even sign-of-zero or NaN-payload drift
// would fail.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "constraints/oracle.h"
#include "core/cvcp.h"
#include "core/dataset_cache.h"
#include "core/selectors.h"
#include "data/generators.h"
#include "harness/experiment.h"
#include "tests/geometry_oracle.h"

namespace cvcp {
namespace {

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

Dataset FixtureData(uint64_t seed) {
  Rng rng(seed);
  std::vector<GaussianClusterSpec> specs(4);
  specs[0].mean = {0.0, 0.0};
  specs[1].mean = {30.0, 0.0};
  specs[2].mean = {0.0, 30.0};
  specs[3].mean = {30.0, 30.0};
  for (auto& spec : specs) {
    spec.stddevs = {0.8};
    spec.size = 25;
  }
  return MakeGaussianMixture("fixture", specs, &rng);
}

/// Scenario II fixture: pairwise constraints + FOSC — the clusterer whose
/// model stage actually goes through the cache.
struct ConstraintFixture {
  Dataset data = FixtureData(601);
  Supervision supervision = [this] {
    Rng rng(602);
    auto pool = BuildConstraintPool(data, 0.25, &rng);
    CVCP_CHECK(pool.ok());
    auto sampled = SampleConstraints(pool.value(), 0.5, &rng);
    CVCP_CHECK(sampled.ok());
    return Supervision::FromConstraints(sampled.value());
  }();
  FoscOpticsDendClusterer clusterer;
  UncachedFoscClusterer oracle;
};

/// Scenario I fixture: labels + MPCKMeans — exercises the cached
/// silhouette path (the clusterer ignores the cache, so it is its own
/// oracle).
struct LabelFixture {
  Dataset data = FixtureData(701);
  Supervision supervision = [this] {
    Rng rng(702);
    auto labeled = SampleLabeledObjects(data, 0.25, &rng);
    CVCP_CHECK(labeled.ok());
    return Supervision::FromLabels(data, labeled.value());
  }();
  MpckMeansClusterer clusterer;
  MpckMeansClusterer oracle;
};

void ExpectReportsIdentical(const CvcpReport& a, const CvcpReport& b,
                            int threads) {
  EXPECT_EQ(a.best_param, b.best_param) << "threads " << threads;
  EXPECT_EQ(Bits(a.best_score), Bits(b.best_score)) << "threads " << threads;
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (size_t g = 0; g < a.scores.size(); ++g) {
    EXPECT_EQ(a.scores[g].param, b.scores[g].param) << "grid " << g;
    EXPECT_EQ(a.scores[g].valid_folds, b.scores[g].valid_folds)
        << "grid " << g;
    EXPECT_EQ(Bits(a.scores[g].score), Bits(b.scores[g].score))
        << "grid " << g << ", threads " << threads;
  }
  EXPECT_EQ(a.final_clustering.assignment(), b.final_clustering.assignment())
      << "threads " << threads;
}

template <typename Fixture>
void CheckCachedCvcpBitIdentical(const Fixture& fixture,
                                 CvcpConfig config) {
  config.cv.exec = ExecutionContext::Serial();
  Rng oracle_rng(808);
  auto expected = RunCvcp(fixture.data, fixture.supervision, fixture.oracle,
                          config, &oracle_rng);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (int threads : {1, 2, 8}) {
    config.cv.exec.threads = threads;
    // Fresh cache per configuration: lazily filled during the run, shared
    // by all of its cells.
    DatasetCache cache(fixture.data.points());
    Rng rng(808);
    auto cached = RunCvcp(fixture.data, fixture.supervision,
                          fixture.clusterer, config, &rng, &cache);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    ExpectReportsIdentical(*expected, *cached, threads);
    // No cache passed: RunCvcp's private one must agree too.
    Rng private_rng(808);
    auto private_cache = RunCvcp(fixture.data, fixture.supervision,
                                 fixture.clusterer, config, &private_rng);
    ASSERT_TRUE(private_cache.ok()) << private_cache.status().ToString();
    ExpectReportsIdentical(*expected, *private_cache, threads);
  }
}

TEST(CacheDeterminismTest, CvcpConstraintsFoscBitIdentical) {
  ConstraintFixture fixture;
  CvcpConfig config;
  config.cv.n_folds = 4;
  config.param_grid = {3, 6, 9, 12};
  CheckCachedCvcpBitIdentical(fixture, config);
}

TEST(CacheDeterminismTest, CvcpLabelsMpckMeansBitIdentical) {
  LabelFixture fixture;
  CvcpConfig config;
  config.cv.n_folds = 5;
  config.param_grid = {2, 3, 4, 5, 6};
  CheckCachedCvcpBitIdentical(fixture, config);
}

TEST(CacheDeterminismTest, FoscClustersBitIdenticalThroughCache) {
  // The clusterer front door: DoCluster through a shared cache (memoized
  // OPTICS over the distance matrix) and through its private per-call
  // cache must both produce the oracle's partition (on-the-fly distances)
  // at every grid value.
  ConstraintFixture fixture;
  DatasetCache cache(fixture.data.points());
  ExecutionContext exec;
  exec.threads = 2;
  for (int min_pts : {2, 4, 8, 16}) {
    Rng rng_a(11);
    Rng rng_b(11);
    Rng rng_c(11);
    auto expected = fixture.oracle.Cluster(fixture.data, fixture.supervision,
                                           min_pts, &rng_a);
    auto cached = fixture.clusterer.Cluster(
        fixture.data, fixture.supervision, min_pts, &rng_b,
        ClusterContext{&cache, exec});
    auto private_cache = fixture.clusterer.Cluster(
        fixture.data, fixture.supervision, min_pts, &rng_c);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(cached.ok());
    ASSERT_TRUE(private_cache.ok());
    EXPECT_EQ(expected->assignment(), cached->assignment())
        << "MinPts " << min_pts;
    EXPECT_EQ(expected->assignment(), private_cache->assignment())
        << "MinPts " << min_pts;
  }
}

TEST(CacheDeterminismTest, SilhouetteSelectionBitIdentical) {
  LabelFixture fixture;
  const std::vector<int> grid = {2, 3, 4, 5, 6};
  Rng private_rng(909);
  auto expected =
      SelectBySilhouette(fixture.data, fixture.supervision, fixture.clusterer,
                         grid, &private_rng);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  // Oracle: the same index-forked runs, scored by the cache-less rescan.
  for (size_t gi = 0; gi < grid.size(); ++gi) {
    Rng run_rng = Rng(909).Fork(gi);
    auto clustering = fixture.oracle.Cluster(fixture.data, fixture.supervision,
                                             grid[gi], &run_rng);
    ASSERT_TRUE(clustering.ok()) << clustering.status().ToString();
    EXPECT_EQ(Bits(expected->silhouettes[gi]),
              Bits(ReferenceSilhouette(fixture.data.points(), *clustering)))
        << "grid " << gi;
  }

  for (int threads : {1, 2, 8}) {
    DatasetCache cache(fixture.data.points());
    ExecutionContext exec;
    exec.threads = threads;
    Rng rng(909);
    auto cached =
        SelectBySilhouette(fixture.data, fixture.supervision,
                           fixture.clusterer, grid, &rng,
                           ClusterContext{&cache, exec});
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    EXPECT_EQ(cached->best_param, expected->best_param);
    EXPECT_EQ(Bits(cached->best_silhouette), Bits(expected->best_silhouette));
    ASSERT_EQ(cached->silhouettes.size(), expected->silhouettes.size());
    for (size_t gi = 0; gi < grid.size(); ++gi) {
      EXPECT_EQ(Bits(cached->silhouettes[gi]), Bits(expected->silhouettes[gi]))
          << "grid " << gi << ", threads " << threads;
    }
    EXPECT_EQ(cached->best_clustering.assignment(),
              expected->best_clustering.assignment());
  }
}

void ExpectAggregatesIdentical(const bench::CellAggregate& a,
                               const bench::CellAggregate& b,
                               const char* label) {
  EXPECT_EQ(a.trials_ok, b.trials_ok) << label;
  EXPECT_EQ(Bits(a.corr_mean), Bits(b.corr_mean)) << label;
  EXPECT_EQ(Bits(a.cvcp_mean), Bits(b.cvcp_mean)) << label;
  EXPECT_EQ(Bits(a.cvcp_std), Bits(b.cvcp_std)) << label;
  EXPECT_EQ(Bits(a.exp_mean), Bits(b.exp_mean)) << label;
  EXPECT_EQ(Bits(a.sil_mean), Bits(b.sil_mean)) << label;
  EXPECT_EQ(Bits(a.cvcp_vs_exp.p_value), Bits(b.cvcp_vs_exp.p_value))
      << label;
  ASSERT_EQ(a.cvcp_values.size(), b.cvcp_values.size()) << label;
  for (size_t t = 0; t < a.cvcp_values.size(); ++t) {
    EXPECT_EQ(Bits(a.cvcp_values[t]), Bits(b.cvcp_values[t]))
        << label << ", trial " << t;
    EXPECT_EQ(Bits(a.sil_values[t]), Bits(b.sil_values[t]))
        << label << ", trial " << t;
  }
}

// The whole harness: a private per-experiment cache and a run-wide pool
// must agree byte-for-byte at every thread width (the cache is shared by
// concurrent trial lanes, so this also exercises cross-trial sharing).
// The silhouettes' oracle is SilhouetteSelectionBitIdentical's.
TEST(CacheDeterminismTest, ExperimentAggregatesBitIdentical) {
  Dataset data = FixtureData(801);
  MpckMeansClusterer clusterer;
  bench::TrialSpec spec;
  spec.scenario = bench::Scenario::kLabels;
  spec.level = 0.2;
  spec.n_folds = 3;
  spec.grid = {2, 3, 4, 5};
  spec.with_silhouette = true;
  const int trials = 4;

  spec.exec = ExecutionContext::Serial();
  const bench::CellAggregate baseline =
      bench::RunExperiment(data, clusterer, spec, trials, /*seed=*/99);
  ASSERT_GT(baseline.trials_ok, 0);

  for (int threads : {1, 2, 3, 8}) {
    for (bool use_pool : {true, false}) {
      DatasetCachePool pool(/*memory_capacity_bytes=*/64 * 1024 * 1024);
      spec.cache_pool = use_pool ? &pool : nullptr;
      spec.exec.threads = threads;
      const bench::CellAggregate agg =
          bench::RunExperiment(data, clusterer, spec, trials, /*seed=*/99);
      const std::string label =
          std::string(use_pool ? "pool" : "private") + ", threads " +
          std::to_string(threads);
      ExpectAggregatesIdentical(baseline, agg, label.c_str());
    }
  }
}

// Same one level up for FOSC (the cache-heavy algorithm) including the
// FOSC-specific sweep and external scores, against the cache-less oracle.
TEST(CacheDeterminismTest, FoscExperimentAggregatesBitIdentical) {
  Dataset data = FixtureData(901);
  FoscOpticsDendClusterer clusterer;
  UncachedFoscClusterer oracle;
  bench::TrialSpec spec;
  spec.scenario = bench::Scenario::kConstraints;
  spec.level = 0.5;
  spec.n_folds = 3;
  spec.grid = {3, 5, 8, 12};
  const int trials = 3;

  spec.exec = ExecutionContext::Serial();
  const bench::CellAggregate baseline =
      bench::RunExperiment(data, oracle, spec, trials, /*seed=*/77);
  ASSERT_GT(baseline.trials_ok, 0);

  for (int threads : {1, 2, 3, 8}) {
    spec.exec.threads = threads;
    const bench::CellAggregate agg =
        bench::RunExperiment(data, clusterer, spec, trials, /*seed=*/77);
    const std::string label = "threads " + std::to_string(threads);
    ExpectAggregatesIdentical(baseline, agg, label.c_str());
  }
}

}  // namespace
}  // namespace cvcp
