#include "core/cvcp.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.h"
#include "constraints/oracle.h"
#include "data/generators.h"
#include "eval/external_measures.h"

namespace cvcp {
namespace {

Dataset EasyData(uint64_t seed = 1) {
  // Four blobs at fixed, well-separated corners (random blob placement can
  // drop two means next to each other and make "the true k" ambiguous).
  Rng rng(seed);
  std::vector<GaussianClusterSpec> specs(4);
  specs[0].mean = {0.0, 0.0};
  specs[1].mean = {30.0, 0.0};
  specs[2].mean = {0.0, 30.0};
  specs[3].mean = {30.0, 30.0};
  for (auto& s : specs) {
    s.stddevs = {0.8};
    s.size = 25;
  }
  return MakeGaussianMixture("easy", specs, &rng);
}

/// RunCvcpSelection from `rng` must return `full` (RunCvcp's report from
/// the same seed) minus the final clustering, bit for bit.
void ExpectSelectionMatches(const CvcpReport& full, const Dataset& data,
                            const Supervision& supervision,
                            const SemiSupervisedClusterer& clusterer,
                            const CvcpConfig& config, Rng rng) {
  auto selection = RunCvcpSelection(data, supervision, clusterer, config,
                                    &rng);
  ASSERT_TRUE(selection.ok()) << selection.status().ToString();
  ASSERT_EQ(selection->scores.size(), full.scores.size());
  for (size_t g = 0; g < full.scores.size(); ++g) {
    EXPECT_EQ(selection->scores[g].param, full.scores[g].param);
    EXPECT_EQ(std::bit_cast<uint64_t>(selection->scores[g].score),
              std::bit_cast<uint64_t>(full.scores[g].score));
    EXPECT_EQ(selection->scores[g].valid_folds, full.scores[g].valid_folds);
  }
  EXPECT_EQ(selection->best_param, full.best_param);
  EXPECT_EQ(std::bit_cast<uint64_t>(selection->best_score),
            std::bit_cast<uint64_t>(full.best_score));
  EXPECT_EQ(selection->final_clustering.size(), 0u);
  EXPECT_GT(full.final_clustering.size(), 0u);
}

TEST(CvcpTest, SelectsTrueKOnSeparatedBlobsMpck) {
  Dataset data = EasyData();
  Rng rng(2);
  auto labeled = SampleLabeledObjects(data, 0.25, &rng);
  ASSERT_TRUE(labeled.ok());
  Supervision supervision = Supervision::FromLabels(data, labeled.value());
  MpckMeansClusterer clusterer;
  CvcpConfig config;
  config.cv.n_folds = 5;
  config.param_grid = {2, 3, 4, 5, 6, 7, 8};
  auto report = RunCvcp(data, supervision, clusterer, config, &rng);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->best_param, 4);
  EXPECT_GT(report->best_score, 0.9);
  EXPECT_EQ(report->scores.size(), 7u);
  // The final clustering is good externally too.
  EXPECT_GT(OverallFMeasure(data.labels(), report->final_clustering), 0.9);
}

TEST(CvcpTest, WorksWithFoscInConstraintScenario) {
  Dataset data = EasyData(3);
  Rng rng(4);
  auto pool = BuildConstraintPool(data, 0.25, &rng);
  ASSERT_TRUE(pool.ok());
  auto sampled = SampleConstraints(pool.value(), 0.5, &rng);
  ASSERT_TRUE(sampled.ok());
  Supervision supervision = Supervision::FromConstraints(sampled.value());
  FoscOpticsDendClusterer clusterer;
  CvcpConfig config;
  config.cv.n_folds = 4;
  config.param_grid = {3, 6, 9, 12};
  const Rng selection_rng = rng;
  auto report = RunCvcp(data, supervision, clusterer, config, &rng);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->best_score, 0.5);
  // Best param is one of the grid values.
  bool in_grid = false;
  for (int p : config.param_grid) in_grid |= (p == report->best_param);
  EXPECT_TRUE(in_grid);
  ExpectSelectionMatches(report.value(), data, supervision, clusterer, config,
                         selection_rng);
}

TEST(CvcpTest, ScoresReportedInGridOrder) {
  Dataset data = EasyData(5);
  Rng rng(6);
  auto labeled = SampleLabeledObjects(data, 0.2, &rng);
  ASSERT_TRUE(labeled.ok());
  Supervision supervision = Supervision::FromLabels(data, labeled.value());
  MpckMeansClusterer clusterer;
  CvcpConfig config;
  config.cv.n_folds = 3;
  config.param_grid = {5, 2, 9};
  auto report = RunCvcp(data, supervision, clusterer, config, &rng);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->scores.size(), 3u);
  EXPECT_EQ(report->scores[0].param, 5);
  EXPECT_EQ(report->scores[1].param, 2);
  EXPECT_EQ(report->scores[2].param, 9);
}

TEST(CvcpTest, TieBreaksTowardEarlierGridEntry) {
  // A degenerate two-point-class dataset where several k are perfect:
  // verify the first grid entry among the argmax set is chosen. We build
  // this indirectly: run twice with reversed grids and check consistency.
  Dataset data = EasyData(7);
  Rng rng_a(8), rng_b(8);
  auto labeled = SampleLabeledObjects(data, 0.25, &rng_a);
  ASSERT_TRUE(labeled.ok());
  Supervision supervision = Supervision::FromLabels(data, labeled.value());
  (void)SampleLabeledObjects(data, 0.25, &rng_b);  // keep rngs aligned

  MpckMeansClusterer clusterer;
  CvcpConfig forward;
  forward.cv.n_folds = 5;
  forward.param_grid = {4, 5, 6};
  auto rep_f = RunCvcp(data, supervision, clusterer, forward, &rng_a);
  ASSERT_TRUE(rep_f.ok());

  CvcpConfig reversed = forward;
  reversed.param_grid = {6, 5, 4};
  auto rep_r = RunCvcp(data, supervision, clusterer, reversed, &rng_b);
  ASSERT_TRUE(rep_r.ok());

  // Both runs must pick a param whose score equals their own max score.
  for (const auto& rep : {rep_f.value(), rep_r.value()}) {
    double max_score = -1.0;
    for (const auto& s : rep.scores) {
      if (!std::isnan(s.score)) max_score = std::max(max_score, s.score);
    }
    EXPECT_DOUBLE_EQ(rep.best_score, max_score);
  }
}

TEST(CvcpTest, EmptyGridRejected) {
  Dataset data = EasyData(9);
  Rng rng(10);
  Supervision supervision = Supervision::FromLabels(data, {0, 1, 2, 3, 4});
  MpckMeansClusterer clusterer;
  CvcpConfig config;
  config.cv.n_folds = 2;
  auto report = RunCvcp(data, supervision, clusterer, config, &rng);
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(CvcpTest, TooFewObjectsForFoldsErrors) {
  Dataset data = EasyData();
  Rng rng(9);
  Supervision supervision = Supervision::FromLabels(data, {0, 1, 2});
  MpckMeansClusterer clusterer;
  CvcpConfig config;
  config.cv.n_folds = 10;
  config.param_grid = {3};
  auto report = RunCvcp(data, supervision, clusterer, config, &rng);
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(CvcpTest, DeterministicGivenSeed) {
  Dataset data = EasyData(11);
  Rng rng(12);
  auto labeled = SampleLabeledObjects(data, 0.2, &rng);
  ASSERT_TRUE(labeled.ok());
  Supervision supervision = Supervision::FromLabels(data, labeled.value());
  MpckMeansClusterer clusterer;
  CvcpConfig config;
  config.cv.n_folds = 4;
  config.param_grid = {2, 4, 6};
  Rng a(13), b(13);
  auto ra = RunCvcp(data, supervision, clusterer, config, &a);
  auto rb = RunCvcp(data, supervision, clusterer, config, &b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->best_param, rb->best_param);
  for (size_t i = 0; i < ra->scores.size(); ++i) {
    if (std::isnan(ra->scores[i].score)) {
      EXPECT_TRUE(std::isnan(rb->scores[i].score));
    } else {
      EXPECT_DOUBLE_EQ(ra->scores[i].score, rb->scores[i].score);
    }
  }
  EXPECT_EQ(ra->final_clustering.assignment(),
            rb->final_clustering.assignment());
  // Steps 1-3 alone.
  ExpectSelectionMatches(ra.value(), data, supervision, clusterer, config,
                         Rng(13));
}

TEST(CvcpTest, KMeansBaselineIgnoresSupervisionButStillSelectsK) {
  Dataset data = EasyData(14);
  Rng rng(15);
  auto labeled = SampleLabeledObjects(data, 0.25, &rng);
  ASSERT_TRUE(labeled.ok());
  Supervision supervision = Supervision::FromLabels(data, labeled.value());
  KMeansClusterer clusterer;
  CvcpConfig config;
  config.cv.n_folds = 5;
  config.param_grid = {2, 3, 4, 5, 6};
  auto report = RunCvcp(data, supervision, clusterer, config, &rng);
  ASSERT_TRUE(report.ok());
  // Even an unsupervised algorithm can be model-selected through the
  // constraint F-measure lens; on well-separated blobs k=4 wins.
  EXPECT_EQ(report->best_param, 4);
}

}  // namespace
}  // namespace cvcp
