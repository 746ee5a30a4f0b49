// End-to-end integration and parameterized property tests: the full CVCP
// pipeline (oracle -> folds -> clusterer -> F-measure -> selection) across
// scenarios, algorithms and fold counts.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "constraints/oracle.h"
#include "constraints/transitive_closure.h"
#include "core/cvcp.h"
#include "core/selectors.h"
#include "data/generators.h"
#include "data/iris.h"
#include "eval/external_measures.h"

namespace cvcp {
namespace {

// ---------------------------------------------------------------------------
// End-to-end checks on real-ish data.
// ---------------------------------------------------------------------------

TEST(IntegrationTest, CvcpWithFoscOnIrisBeatsExpectedQuality) {
  Dataset iris = MakeIris();
  Rng rng(20140324);

  double cvcp_sum = 0.0, expected_sum = 0.0;
  const int kTrials = 3;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng trial_rng = rng.Fork(static_cast<uint64_t>(trial));
    auto labeled = SampleLabeledObjects(iris, 0.20, &trial_rng);
    ASSERT_TRUE(labeled.ok());
    Supervision supervision = Supervision::FromLabels(iris, labeled.value());

    FoscOpticsDendClusterer clusterer;
    CvcpConfig config;
    config.cv.n_folds = 5;
    config.param_grid = {3, 6, 9, 12, 15, 18, 21, 24};
    auto report = RunCvcp(iris, supervision, clusterer, config, &trial_rng);
    ASSERT_TRUE(report.ok());

    // External scores over the whole grid for the expected quality.
    const std::vector<bool> exclude = supervision.InvolvementMask(iris.size());
    std::vector<double> externals;
    for (int param : config.param_grid) {
      Rng run_rng = trial_rng.Fork(static_cast<uint64_t>(param) + 1000);
      auto clustering = clusterer.Cluster(iris, supervision, param, &run_rng);
      ASSERT_TRUE(clustering.ok());
      externals.push_back(
          OverallFMeasure(iris.labels(), clustering.value(), &exclude));
      if (param == report->best_param) {
        cvcp_sum += externals.back();
      }
    }
    expected_sum += ExpectedQuality(externals);
  }
  // The paper's qualitative claim (Tables 5-7): CVCP >= Expected on Iris.
  EXPECT_GT(cvcp_sum / kTrials, expected_sum / kTrials - 0.02);
}

TEST(IntegrationTest, ConstraintScenarioEndToEndOnIris) {
  Dataset iris = MakeIris();
  Rng rng(7);
  auto pool = BuildConstraintPool(iris, 0.10, &rng);
  ASSERT_TRUE(pool.ok());
  auto sampled = SampleConstraints(pool.value(), 0.5, &rng);
  ASSERT_TRUE(sampled.ok());
  Supervision supervision = Supervision::FromConstraints(sampled.value());

  FoscOpticsDendClusterer clusterer;
  CvcpConfig config;
  config.cv.n_folds = 5;
  config.param_grid = {3, 6, 9, 12, 15, 18, 21, 24};
  auto report = RunCvcp(iris, supervision, clusterer, config, &rng);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->best_score, 0.5);
  const std::vector<bool> exclude = supervision.InvolvementMask(iris.size());
  EXPECT_GT(OverallFMeasure(iris.labels(), report->final_clustering, &exclude),
            0.55);
}

// ---------------------------------------------------------------------------
// Parameterized property sweep: scenario x algorithm x fold count.
// ---------------------------------------------------------------------------

enum class Algo { kFosc, kMpck, kCop };

struct SweepParam {
  bool label_scenario;
  Algo algo;
  int n_folds;

  std::string Name() const {
    std::string s = label_scenario ? "labels" : "constraints";
    s += algo == Algo::kFosc ? "_fosc" : (algo == Algo::kMpck ? "_mpck" : "_cop");
    s += '_';
    s += std::to_string(n_folds);
    s += "folds";
    return s;
  }
};

// Names the parameter in test ids; without it GoogleTest prints the raw
// struct bytes, padding included.
void PrintTo(const SweepParam& param, std::ostream* os) {
  *os << param.Name();
}

class CvcpSweepTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  static std::unique_ptr<SemiSupervisedClusterer> MakeClusterer(Algo algo) {
    switch (algo) {
      case Algo::kFosc:
        return std::make_unique<FoscOpticsDendClusterer>();
      case Algo::kMpck:
        return std::make_unique<MpckMeansClusterer>();
      case Algo::kCop:
        return std::make_unique<CopKMeansClusterer>();
    }
    return nullptr;
  }
};

TEST_P(CvcpSweepTest, PipelineProducesValidBoundedScores) {
  const SweepParam p = GetParam();
  Rng rng(0xABCDEF ^ static_cast<uint64_t>(p.n_folds));
  Dataset data = MakeBlobs("sweep", 3, 20, 3, 18.0, 1.2, &rng);

  Supervision supervision = Supervision::FromConstraints(ConstraintSet{});
  if (p.label_scenario) {
    auto labeled = SampleLabeledObjects(data, 0.30, &rng);
    ASSERT_TRUE(labeled.ok());
    supervision = Supervision::FromLabels(data, labeled.value());
  } else {
    auto pool = BuildConstraintPool(data, 0.25, &rng);
    ASSERT_TRUE(pool.ok());
    supervision = Supervision::FromConstraints(pool.value());
  }

  auto clusterer = MakeClusterer(p.algo);
  CvcpConfig config;
  config.cv.n_folds = p.n_folds;
  config.param_grid = p.algo == Algo::kFosc
                          ? std::vector<int>{3, 6, 9, 12}
                          : std::vector<int>{2, 3, 4, 5};
  auto report = RunCvcp(data, supervision, *clusterer, config, &rng);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Scores are in [0, 1] or NaN; the selected one is defined and maximal.
  double max_defined = -1.0;
  for (const auto& s : report->scores) {
    if (std::isnan(s.score)) continue;
    EXPECT_GE(s.score, 0.0);
    EXPECT_LE(s.score, 1.0);
    max_defined = std::max(max_defined, s.score);
  }
  EXPECT_DOUBLE_EQ(report->best_score, max_defined);
  // Final clustering covers the dataset.
  EXPECT_EQ(report->final_clustering.size(), data.size());
  // On separable blobs any of the algorithms should do decently.
  EXPECT_GT(report->best_score, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    ScenarioAlgoFolds, CvcpSweepTest,
    ::testing::Values(
        SweepParam{true, Algo::kFosc, 3}, SweepParam{true, Algo::kFosc, 5},
        SweepParam{true, Algo::kMpck, 3}, SweepParam{true, Algo::kMpck, 5},
        SweepParam{true, Algo::kCop, 3}, SweepParam{false, Algo::kFosc, 3},
        SweepParam{false, Algo::kFosc, 5}, SweepParam{false, Algo::kMpck, 3},
        SweepParam{false, Algo::kMpck, 5}, SweepParam{false, Algo::kCop, 3},
        SweepParam{true, Algo::kFosc, 10}, SweepParam{false, Algo::kMpck, 10}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return info.param.Name();
    });

// ---------------------------------------------------------------------------
// Parameterized leakage property: sound folds never leak, across seeds.
// ---------------------------------------------------------------------------

class FoldSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(FoldSoundnessTest, TrainClosureNeverImpliesTestConstraint) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  Dataset data = MakeBlobs("sound", 4, 15, 2, 10.0, 2.0, &rng);
  auto pool = BuildConstraintPool(data, 0.35, &rng);
  ASSERT_TRUE(pool.ok());
  auto sampled = SampleConstraints(pool.value(), 0.6, &rng);
  ASSERT_TRUE(sampled.ok());
  Supervision supervision = Supervision::FromConstraints(sampled.value());
  auto folds = MakeSupervisionFolds(data, supervision,
                                    {.n_folds = 5, .exec = {}}, &rng);
  ASSERT_TRUE(folds.ok());
  for (const FoldSplit& fold : *folds) {
    auto train_closure = TransitiveClosure(fold.train_constraints);
    ASSERT_TRUE(train_closure.ok());
    for (const Constraint& c : fold.test_constraints.all()) {
      EXPECT_FALSE(train_closure->Lookup(c.a, c.b).has_value())
          << "seed " << seed << " leaked " << ConstraintToString(c);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoldSoundnessTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace cvcp
