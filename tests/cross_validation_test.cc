#include "core/cross_validation.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "constraints/oracle.h"
#include "core/cvcp.h"
#include "data/generators.h"

namespace cvcp {
namespace {

Dataset EasyData(uint64_t seed = 1) {
  Rng rng(seed);
  return MakeBlobs("easy", 3, 25, 2, 25.0, 0.8, &rng);
}

TEST(MakeSupervisionFoldsTest, DispatchesByKind) {
  Dataset data = EasyData();
  Rng rng(2);
  // Scenario I.
  auto labeled = SampleLabeledObjects(data, 0.3, &rng);
  ASSERT_TRUE(labeled.ok());
  Supervision by_labels = Supervision::FromLabels(data, labeled.value());
  auto folds_l = MakeSupervisionFolds(data, by_labels,
                                      {.n_folds = 4, .exec = {}}, &rng);
  ASSERT_TRUE(folds_l.ok());
  EXPECT_EQ(folds_l->size(), 4u);
  EXPECT_FALSE((*folds_l)[0].train_labels.empty());

  // Scenario II.
  auto pool = BuildConstraintPool(data, 0.2, &rng);
  ASSERT_TRUE(pool.ok());
  Supervision by_constraints = Supervision::FromConstraints(pool.value());
  auto folds_c =
      MakeSupervisionFolds(data, by_constraints, {.n_folds = 4, .exec = {}},
                           &rng);
  ASSERT_TRUE(folds_c.ok());
  EXPECT_EQ(folds_c->size(), 4u);
  EXPECT_TRUE((*folds_c)[0].train_labels.empty());
}

TEST(ScoreGridOnFoldsTest, GoodParamScoresHighOnEasyData) {
  Dataset data = EasyData();
  Rng rng(3);
  auto labeled = SampleLabeledObjects(data, 0.3, &rng);
  ASSERT_TRUE(labeled.ok());
  Supervision supervision = Supervision::FromLabels(data, labeled.value());
  auto folds = MakeSupervisionFolds(data, supervision,
                                    {.n_folds = 5, .exec = {}}, &rng);
  ASSERT_TRUE(folds.ok());

  MpckMeansClusterer clusterer;
  auto scores = ScoreGridOnFolds(data, *folds, supervision.kind(), clusterer,
                                 /*param_grid=*/{3}, &rng);
  ASSERT_TRUE(scores.ok());
  const CvScore& score = scores->front();
  EXPECT_EQ(score.fold_scores.size(), 5u);
  EXPECT_EQ(score.valid_folds, 5);
  EXPECT_GT(score.mean_f, 0.9);
}

TEST(ScoreGridOnFoldsTest, BadParamScoresLower) {
  Dataset data = EasyData();
  Rng rng(4);
  auto labeled = SampleLabeledObjects(data, 0.3, &rng);
  ASSERT_TRUE(labeled.ok());
  Supervision supervision = Supervision::FromLabels(data, labeled.value());
  auto folds = MakeSupervisionFolds(data, supervision,
                                    {.n_folds = 5, .exec = {}}, &rng);
  ASSERT_TRUE(folds.ok());

  MpckMeansClusterer clusterer;
  Rng rng_good(5), rng_bad(5);
  auto good = ScoreGridOnFolds(data, *folds, supervision.kind(), clusterer,
                               {3}, &rng_good);
  auto bad = ScoreGridOnFolds(data, *folds, supervision.kind(), clusterer,
                              {10}, &rng_bad);
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(bad.ok());
  EXPECT_GT(good->front().mean_f, bad->front().mean_f);
}

TEST(ScoreGridOnFoldsTest, DeterministicGivenSameRngSeed) {
  Dataset data = EasyData();
  Rng rng(6);
  auto labeled = SampleLabeledObjects(data, 0.2, &rng);
  ASSERT_TRUE(labeled.ok());
  Supervision supervision = Supervision::FromLabels(data, labeled.value());
  auto folds = MakeSupervisionFolds(data, supervision,
                                    {.n_folds = 3, .exec = {}}, &rng);
  ASSERT_TRUE(folds.ok());
  MpckMeansClusterer clusterer;
  Rng a(7), b(7);
  auto ra =
      ScoreGridOnFolds(data, *folds, supervision.kind(), clusterer, {3}, &a);
  auto rb =
      ScoreGridOnFolds(data, *folds, supervision.kind(), clusterer, {3}, &b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->front().fold_scores, rb->front().fold_scores);
}

TEST(ScoreGridOnFoldsTest, MatchesPerParamScoringForEveryThreadCount) {
  Dataset data = EasyData();
  Rng rng(12);
  auto labeled = SampleLabeledObjects(data, 0.3, &rng);
  ASSERT_TRUE(labeled.ok());
  Supervision supervision = Supervision::FromLabels(data, labeled.value());
  auto folds = MakeSupervisionFolds(data, supervision,
                                    {.n_folds = 4, .exec = {}}, &rng);
  ASSERT_TRUE(folds.ok());
  MpckMeansClusterer clusterer;
  const std::vector<int> grid = {2, 3, 5};

  // Reference: each param scored serially on its own one-value grid.
  std::vector<CvScore> expected;
  for (int param : grid) {
    Rng param_rng(13);
    auto score = ScoreGridOnFolds(data, *folds, supervision.kind(), clusterer,
                                  {param}, &param_rng);
    ASSERT_TRUE(score.ok());
    expected.push_back(score->front());
  }

  for (int threads : {1, 2, 8}) {
    ExecutionContext exec;
    exec.threads = threads;
    Rng grid_rng(13);
    auto scores = ScoreGridOnFolds(data, *folds, supervision.kind(), clusterer,
                                   grid, &grid_rng, exec);
    ASSERT_TRUE(scores.ok());
    ASSERT_EQ(scores->size(), grid.size());
    for (size_t g = 0; g < grid.size(); ++g) {
      EXPECT_EQ((*scores)[g].fold_scores, expected[g].fold_scores)
          << "param " << grid[g] << ", threads " << threads;
      EXPECT_EQ((*scores)[g].valid_folds, expected[g].valid_folds);
      EXPECT_DOUBLE_EQ((*scores)[g].mean_f, expected[g].mean_f);
    }
  }
}

}  // namespace
}  // namespace cvcp
