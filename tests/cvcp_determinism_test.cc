// Determinism suite for the parallel CVCP execution engine: RunCvcp must
// produce byte-identical reports for every thread count, on both
// supervision scenarios. Scores are compared through their bit patterns so
// even sign-of-zero or NaN-payload drift would fail.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "constraints/oracle.h"
#include "core/cvcp.h"
#include "data/generators.h"
#include "tests/failing_clusterer.h"

namespace cvcp {
namespace {

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

/// Scenario I fixture: labeled objects + MPCKMeans.
struct LabelFixture {
  Dataset data = FixtureData(101);
  Supervision supervision = [this] {
    Rng rng(102);
    auto labeled = SampleLabeledObjects(data, 0.25, &rng);
    CVCP_CHECK(labeled.ok());
    return Supervision::FromLabels(data, labeled.value());
  }();
  MpckMeansClusterer clusterer;
};

/// Scenario II fixture: pairwise constraints + FOSC.
struct ConstraintFixture {
  Dataset data = FixtureData(201);
  Supervision supervision = [this] {
    Rng rng(202);
    auto pool = BuildConstraintPool(data, 0.25, &rng);
    CVCP_CHECK(pool.ok());
    auto sampled = SampleConstraints(pool.value(), 0.5, &rng);
    CVCP_CHECK(sampled.ok());
    return Supervision::FromConstraints(sampled.value());
  }();
  FoscOpticsDendClusterer clusterer;
};

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

/// Asserts two reports are byte-identical in every field.
void ExpectReportsIdentical(const CvcpReport& a, const CvcpReport& b,
                            int threads) {
  EXPECT_EQ(a.best_param, b.best_param) << "threads " << threads;
  EXPECT_EQ(Bits(a.best_score), Bits(b.best_score)) << "threads " << threads;
  ASSERT_EQ(a.scores.size(), b.scores.size()) << "threads " << threads;
  for (size_t g = 0; g < a.scores.size(); ++g) {
    EXPECT_EQ(a.scores[g].param, b.scores[g].param)
        << "grid " << g << ", threads " << threads;
    EXPECT_EQ(a.scores[g].valid_folds, b.scores[g].valid_folds)
        << "grid " << g << ", threads " << threads;
    EXPECT_EQ(Bits(a.scores[g].score), Bits(b.scores[g].score))
        << "grid " << g << ", threads " << threads;
  }
  EXPECT_EQ(a.final_clustering.assignment(), b.final_clustering.assignment())
      << "threads " << threads;
}

template <typename Fixture>
void CheckThreadCountInvariance(const Fixture& fixture,
                                const CvcpConfig& base_config,
                                uint64_t seed = 303) {
  CvcpConfig config = base_config;
  config.cv.exec = ExecutionContext::Serial();
  Rng serial_rng(seed);
  auto serial = RunCvcp(fixture.data, fixture.supervision, fixture.clusterer,
                        config, &serial_rng);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  for (int threads : {2, 3, 4, 8}) {
    config.cv.exec.threads = threads;
    Rng rng(seed);
    auto parallel = RunCvcp(fixture.data, fixture.supervision,
                            fixture.clusterer, config, &rng);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectReportsIdentical(*serial, *parallel, threads);
  }
}

TEST(CvcpDeterminismTest, ScenarioOneLabelsMpckMeansBitIdentical) {
  LabelFixture fixture;
  CvcpConfig config;
  config.cv.n_folds = 5;
  config.param_grid = {2, 3, 4, 5, 6, 7, 8};
  CheckThreadCountInvariance(fixture, config);
}

TEST(CvcpDeterminismTest, ScenarioTwoConstraintsFoscBitIdentical) {
  ConstraintFixture fixture;
  CvcpConfig config;
  config.cv.n_folds = 4;
  config.param_grid = {3, 6, 9, 12};
  CheckThreadCountInvariance(fixture, config);
}

// The same two scenarios under a second seed. The names date from when
// parallel runs started cells longest-first by an estimated cost; cells
// now start in canonical order, and the report must still be
// byte-identical to the serial one at every width.
TEST(CvcpDeterminismTest, CostSortedLabelsMpckMeansBitIdentical) {
  LabelFixture fixture;
  CvcpConfig config;
  config.cv.n_folds = 5;
  config.param_grid = {2, 3, 4, 5, 6, 7, 8};
  CheckThreadCountInvariance(fixture, config, 707);
}

TEST(CvcpDeterminismTest, CostSortedConstraintsFoscBitIdentical) {
  ConstraintFixture fixture;
  CvcpConfig config;
  config.cv.n_folds = 4;
  config.param_grid = {3, 6, 9, 12};
  CheckThreadCountInvariance(fixture, config, 707);
}

// First error wins: cells fail at two grid values, and RunCvcp must
// return the error of the lower one — what a serial loop that stops at
// its first failing cell returns — at every width.
Result<CvcpReport> RunFailingCvcp(std::vector<int> failing_k, int threads) {
  LabelFixture fixture;
  FailAtKClusterer clusterer(std::move(failing_k));
  CvcpConfig config;
  config.cv.n_folds = 5;
  config.cv.exec.threads = threads;
  config.param_grid = {2, 3, 4, 5, 6, 7, 8};
  Rng rng(404);
  return RunCvcp(fixture.data, fixture.supervision, clusterer, config, &rng);
}

TEST(CvcpDeterminismTest, FirstFailingGridValueWinsAtEveryWidth) {
  for (int threads : {1, 2, 3, 8}) {
    auto both = RunFailingCvcp({4, 6}, threads);
    EXPECT_EQ(both.status().code(), StatusCode::kInternal)
        << "threads " << threads;
    EXPECT_EQ(both.status().message(), FailAtKClusterer::Message(4))
        << "threads " << threads;
    auto upper = RunFailingCvcp({6}, threads);
    EXPECT_EQ(upper.status().code(), StatusCode::kInternal)
        << "threads " << threads;
    EXPECT_EQ(upper.status().message(), FailAtKClusterer::Message(6))
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace cvcp
