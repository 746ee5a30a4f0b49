#include "cluster/mpckmeans.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/clusterer.h"
#include "core/fmeasure.h"
#include "core/supervision.h"
#include "data/generators.h"
#include "eval/external_measures.h"
#include "tests/mpck_oracle.h"

namespace cvcp {
namespace {

TEST(MpckMeansTest, RecoversSeparatedBlobsWithoutConstraints) {
  Rng rng(1);
  Dataset data = MakeBlobs("blobs", 3, 25, 2, 30.0, 0.5, &rng);
  MpckMeansConfig config;
  config.k = 3;
  auto result = RunMpckMeans(data.points(), ConstraintSet{}, config, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(AdjustedRandIndex(data.labels(), result->clustering), 0.99);
}

TEST(MpckMeansTest, SatisfiesMostConstraintsOnEasyData) {
  Rng rng(2);
  Dataset data = MakeBlobs("blobs", 3, 25, 2, 20.0, 1.0, &rng);
  // Derive 40 ground-truth constraints.
  std::vector<size_t> objects;
  for (size_t i = 0; i < data.size(); i += 5) objects.push_back(i);
  ConstraintSet constraints =
      ConstraintSet::FromLabels(data.labels(), objects);
  MpckMeansConfig config;
  config.k = 3;
  auto result = RunMpckMeans(data.points(), constraints, config, &rng);
  ASSERT_TRUE(result.ok());
  const ConstraintFMeasure fm =
      EvaluateConstraintClassification(result->clustering, constraints);
  EXPECT_GT(fm.average, 0.95);
}

TEST(MpckMeansTest, ConstraintsRescueAmbiguousStructure) {
  // Two elongated clusters that plain k-means splits the wrong way:
  // constraints must push MPCKMeans (via penalties + metric learning)
  // toward the ground truth more often than not.
  Rng rng(3);
  std::vector<GaussianClusterSpec> specs(2);
  specs[0].mean = {0.0, 0.0};
  specs[0].stddevs = {8.0, 0.6};  // wide in x, thin in y
  specs[0].size = 60;
  specs[1].mean = {0.0, 3.0};
  specs[1].stddevs = {8.0, 0.6};
  specs[1].size = 60;
  Dataset data = MakeGaussianMixture("stripes", specs, &rng);

  // Unconstrained baseline.
  MpckMeansConfig config;
  config.k = 2;
  Rng rng_a(4);
  auto base = RunMpckMeans(data.points(), ConstraintSet{}, config, &rng_a);
  ASSERT_TRUE(base.ok());

  // Supervised: 30 labeled objects -> all-pairs constraints. (With only a
  // dozen labeled objects the greedy ICM provably sticks in the x-split
  // fixed point; the rescue needs enough constraint mass to matter.)
  std::vector<size_t> objects;
  for (size_t i = 0; i < data.size(); i += 4) objects.push_back(i);
  ConstraintSet constraints =
      ConstraintSet::FromLabels(data.labels(), objects);
  Rng rng_b(4);
  auto guided = RunMpckMeans(data.points(), constraints, config, &rng_b);
  ASSERT_TRUE(guided.ok());

  const double ari_base = AdjustedRandIndex(data.labels(), base->clustering);
  const double ari_guided =
      AdjustedRandIndex(data.labels(), guided->clustering);
  EXPECT_GT(ari_guided, ari_base - 0.05);
  EXPECT_GT(ari_guided, 0.5);
}

TEST(MpckMeansTest, MetricLearningDownweightsNoiseDimension) {
  // Informative dimension 0, pure-noise high-variance dimension 1. The
  // learned diagonal metric must weight dim 0 above dim 1.
  Rng rng(5);
  std::vector<GaussianClusterSpec> specs(2);
  specs[0].mean = {0.0, 0.0};
  specs[0].stddevs = {0.5, 20.0};
  specs[0].size = 50;
  specs[1].mean = {6.0, 0.0};
  specs[1].stddevs = {0.5, 20.0};
  specs[1].size = 50;
  Dataset data = MakeGaussianMixture("noisy-dim", specs, &rng);

  std::vector<size_t> objects;
  for (size_t i = 0; i < data.size(); i += 4) objects.push_back(i);
  ConstraintSet constraints =
      ConstraintSet::FromLabels(data.labels(), objects);

  MpckMeansConfig config;
  config.k = 2;
  config.metric_mode = MetricMode::kSingleDiagonal;
  auto result = RunMpckMeans(data.points(), constraints, config, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->metric_weights.At(0, 0), result->metric_weights.At(0, 1));
}

TEST(MpckMeansTest, MetricModeNoneKeepsUnitWeights) {
  Rng rng(6);
  Dataset data = MakeBlobs("blobs", 2, 20, 3, 10.0, 1.0, &rng);
  MpckMeansConfig config;
  config.k = 2;
  config.metric_mode = MetricMode::kNone;
  auto result = RunMpckMeans(data.points(), ConstraintSet{}, config, &rng);
  ASSERT_TRUE(result.ok());
  for (size_t h = 0; h < 2; ++h) {
    for (size_t m = 0; m < 3; ++m) {
      EXPECT_DOUBLE_EQ(result->metric_weights.At(h, m), 1.0);
    }
  }
}

TEST(MpckMeansTest, NeighborhoodInitUsesMustLinkComponents) {
  // Two clean must-link neighborhoods should seed k=2 so well that the
  // first assignment already matches the ground truth.
  Rng rng(7);
  Dataset data = MakeBlobs("blobs", 2, 30, 2, 25.0, 0.8, &rng);
  ConstraintSet constraints;
  // Chain 5 must-links within each class.
  auto objs0 = data.ObjectsOfClass(0);
  auto objs1 = data.ObjectsOfClass(1);
  for (size_t i = 0; i + 1 < 6; ++i) {
    ASSERT_TRUE(constraints.AddMustLink(objs0[i], objs0[i + 1]).ok());
    ASSERT_TRUE(constraints.AddMustLink(objs1[i], objs1[i + 1]).ok());
  }
  MpckMeansConfig config;
  config.k = 2;
  auto result = RunMpckMeans(data.points(), constraints, config, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(AdjustedRandIndex(data.labels(), result->clustering), 0.99);
}

TEST(MpckMeansTest, InconsistentConstraintsRejected) {
  Rng rng(8);
  Matrix points = Matrix::FromRows({{0, 0}, {1, 0}, {2, 0}, {3, 0}});
  ConstraintSet bad;
  ASSERT_TRUE(bad.AddMustLink(0, 1).ok());
  ASSERT_TRUE(bad.AddMustLink(1, 2).ok());
  ASSERT_TRUE(bad.AddCannotLink(0, 2).ok());
  MpckMeansConfig config;
  config.k = 2;
  auto result = RunMpckMeans(points, bad, config, &rng);
  EXPECT_EQ(result.status().code(), StatusCode::kInconsistentConstraints);
}

TEST(MpckMeansTest, RejectsInvalidArguments) {
  Rng rng(9);
  Matrix points = Matrix::FromRows({{0, 0}, {1, 1}});
  MpckMeansConfig config;
  config.k = 5;  // > n
  EXPECT_FALSE(RunMpckMeans(points, ConstraintSet{}, config, &rng).ok());
  config.k = 0;
  EXPECT_FALSE(RunMpckMeans(points, ConstraintSet{}, config, &rng).ok());
  config.k = 2;
  ConstraintSet out_of_range;
  ASSERT_TRUE(out_of_range.AddMustLink(0, 7).ok());
  EXPECT_FALSE(RunMpckMeans(points, out_of_range, config, &rng).ok());
}

TEST(MpckMeansTest, DeterministicGivenSeed) {
  Rng data_rng(10);
  Dataset data = MakeBlobs("blobs", 3, 20, 3, 12.0, 1.0, &data_rng);
  std::vector<size_t> objects = {0, 5, 12, 25, 33, 41, 50, 55};
  ConstraintSet constraints =
      ConstraintSet::FromLabels(data.labels(), objects);
  MpckMeansConfig config;
  config.k = 3;
  Rng a(11), b(11);
  auto ra = RunMpckMeans(data.points(), constraints, config, &a);
  auto rb = RunMpckMeans(data.points(), constraints, config, &b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->clustering.assignment(), rb->clustering.assignment());
  EXPECT_DOUBLE_EQ(ra->objective, rb->objective);
}

TEST(MpckMeansTest, PerClusterMetricsCanDiffer) {
  // Cluster 0 is tight in dim 0 / loose in dim 1; cluster 1 the reverse.
  Rng rng(12);
  std::vector<GaussianClusterSpec> specs(2);
  specs[0].mean = {0.0, 0.0};
  specs[0].stddevs = {0.3, 5.0};
  specs[0].size = 60;
  specs[1].mean = {30.0, 0.0};
  specs[1].stddevs = {5.0, 0.3};
  specs[1].size = 60;
  Dataset data = MakeGaussianMixture("aniso", specs, &rng);
  MpckMeansConfig config;
  config.k = 2;
  config.metric_mode = MetricMode::kPerClusterDiagonal;
  auto result = RunMpckMeans(data.points(), ConstraintSet{}, config, &rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->clustering.NumClusters(), 2);
  // Identify which centroid is near x=0.
  const size_t c0 = result->centroids.At(0, 0) < 15.0 ? 0 : 1;
  const size_t c1 = 1 - c0;
  // Tight dimension gets the larger weight within each cluster.
  EXPECT_GT(result->metric_weights.At(c0, 0), result->metric_weights.At(c0, 1));
  EXPECT_GT(result->metric_weights.At(c1, 1), result->metric_weights.At(c1, 0));
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

TEST(MpckMeansTest, ParallelRunsOnSharedInputsMatchSerialRuns) {
  // Every run keeps its memo and scratch to itself: lanes that share the
  // points and constraints must each reproduce their serial run bit for
  // bit (a buffer shared between runs would also trip TSan here).
  Rng data_rng(13);
  Dataset data = MakeBlobs("blobs", 4, 30, 20, 8.0, 1.5, &data_rng);
  std::vector<size_t> objects;
  for (size_t i = 0; i < data.points().rows(); i += 5) objects.push_back(i);
  const ConstraintSet constraints =
      ConstraintSet::FromLabels(data.labels(), objects);
  constexpr size_t kRuns = 16;
  auto run = [&](size_t i) {
    MpckMeansConfig config;
    config.k = 2 + static_cast<int>(i % 6);
    config.metric_mode = i % 3 == 0 ? MetricMode::kSingleDiagonal
                                    : MetricMode::kPerClusterDiagonal;
    Rng rng(100 + i);
    return RunMpckMeans(data.points(), constraints, config, &rng);
  };
  std::vector<Result<MpckMeansResult>> serial;
  for (size_t i = 0; i < kRuns; ++i) serial.push_back(run(i));

  std::vector<Result<MpckMeansResult>> parallel(
      kRuns, Status::Internal("not run"));
  ExecutionContext exec;
  exec.threads = 4;
  ParallelFor(exec, kRuns, [&](size_t i) { parallel[i] = run(i); });
  for (size_t i = 0; i < kRuns; ++i) {
    ASSERT_TRUE(serial[i].ok());
    ASSERT_TRUE(parallel[i].ok()) << i;
    EXPECT_EQ(parallel[i]->clustering.assignment(),
              serial[i]->clustering.assignment())
        << i;
    EXPECT_TRUE(SameBits(parallel[i]->centroids, serial[i]->centroids)) << i;
    EXPECT_TRUE(
        SameBits(parallel[i]->metric_weights, serial[i]->metric_weights))
        << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(parallel[i]->objective),
              std::bit_cast<uint64_t>(serial[i]->objective))
        << i;
    EXPECT_EQ(parallel[i]->iterations, serial[i]->iterations) << i;
  }
}

TEST(MpckMeansTest, SupervisionMemoFirstTouchRaceMatchesOracle) {
  // Several threads take one memo's setup at once, each for its own k:
  // whichever thread's build is published first, every thread adopts the
  // one published setup, and every run — direct, or through the
  // clusterer — equals the oracle run from the same seed. Under TSan this
  // also checks that concurrent runs only read the shared setup.
  Rng data_rng(14);
  Dataset data = MakeBlobs("blobs", 4, 30, 20, 8.0, 1.5, &data_rng);
  std::vector<size_t> objects;
  for (size_t i = 0; i < data.points().rows(); i += 5) objects.push_back(i);
  const Supervision supervision = Supervision::FromConstraints(
      ConstraintSet::FromLabels(data.labels(), objects));
  const ConstraintSet& constraints = supervision.constraints();
  SupervisionMemo memo(data.points(), constraints);
  EXPECT_TRUE(memo.Serves(data.points(), constraints));
  EXPECT_FALSE(memo.Serves(data.points(), ConstraintSet()));

  constexpr size_t kThreads = 4;
  auto config_for = [](size_t t) {
    MpckMeansConfig config;
    config.k = 2 + static_cast<int>(t);
    config.metric_mode = t % 2 == 0 ? MetricMode::kPerClusterDiagonal
                                     : MetricMode::kSingleDiagonal;
    return config;
  };
  std::vector<std::shared_ptr<const MpckSetup>> taken(kThreads);
  std::vector<Result<MpckMeansResult>> direct(kThreads,
                                              Status::Internal("not run"));
  std::vector<Result<Clustering>> clustered(kThreads,
                                            Status::Internal("not run"));
  std::latch start(static_cast<std::ptrdiff_t>(kThreads));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      taken[t] = memo.Mpck();
      Rng rng(200 + t);
      direct[t] = RunMpckMeans(*taken[t], config_for(t), &rng);
      Rng cluster_rng(200 + t);
      const MpckMeansClusterer clusterer(config_for(t));
      clustered[t] =
          clusterer.Cluster(data, supervision, config_for(t).k, &cluster_rng,
                            ClusterContext{nullptr, ExecutionContext::Serial(),
                                           &memo});
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(taken[t], taken[0]) << t;
    Rng oracle_rng(200 + t);
    const Result<MpckMeansResult> oracle = mpck_oracle::OracleRunMpckMeans(
        data.points(), constraints, config_for(t), &oracle_rng);
    ASSERT_TRUE(oracle.ok());
    ASSERT_TRUE(direct[t].ok()) << t;
    ASSERT_TRUE(clustered[t].ok()) << t;
    EXPECT_EQ(direct[t]->clustering.assignment(),
              oracle->clustering.assignment())
        << t;
    EXPECT_EQ(clustered[t]->assignment(), oracle->clustering.assignment())
        << t;
    EXPECT_TRUE(SameBits(direct[t]->centroids, oracle->centroids)) << t;
    EXPECT_TRUE(SameBits(direct[t]->metric_weights, oracle->metric_weights))
        << t;
    EXPECT_EQ(std::bit_cast<uint64_t>(direct[t]->objective),
              std::bit_cast<uint64_t>(oracle->objective))
        << t;
    EXPECT_EQ(direct[t]->iterations, oracle->iterations) << t;
    EXPECT_EQ(direct[t]->converged, oracle->converged) << t;
  }
  EXPECT_EQ(memo.Mpck(), taken[0]);
}

}  // namespace
}  // namespace cvcp
