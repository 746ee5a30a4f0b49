#include "eval/external_measures.h"

#include <gtest/gtest.h>

#include <cmath>

namespace cvcp {
namespace {

TEST(OverallFMeasureTest, PerfectMatchIsOne) {
  std::vector<int> labels = {0, 0, 1, 1, 2, 2};
  Clustering c({5, 5, 3, 3, 9, 9});  // same partition, different ids
  EXPECT_DOUBLE_EQ(OverallFMeasure(labels, c), 1.0);
}

TEST(OverallFMeasureTest, HandComputedSplitClass) {
  // Class 0 = {0,1,2,3} split into clusters {0,1} and {2,3};
  // class 1 = {4,5} exactly cluster 2.
  std::vector<int> labels = {0, 0, 0, 0, 1, 1};
  Clustering c({0, 0, 1, 1, 2, 2});
  // Class 0 best F: vs cluster 0: p=1, r=1/2, F=2/3. Same vs cluster 1.
  // Class 1 best F = 1. Weighted: (4/6)*(2/3) + (2/6)*1 = 4/9 + 1/3 = 7/9.
  EXPECT_NEAR(OverallFMeasure(labels, c), 7.0 / 9.0, 1e-12);
}

TEST(OverallFMeasureTest, MergedClassesPenalized) {
  // Both classes in one cluster: per class p=1/2, r=1, F=2/3.
  std::vector<int> labels = {0, 0, 1, 1};
  Clustering c({0, 0, 0, 0});
  EXPECT_NEAR(OverallFMeasure(labels, c), 2.0 / 3.0, 1e-12);
}

TEST(OverallFMeasureTest, ExclusionMaskRemovesObjects) {
  std::vector<int> labels = {0, 0, 1, 1};
  Clustering c({0, 1, 1, 0});  // everything wrong
  // Exclude the two wrong objects 1 and 3: remaining {0} in cluster 0 and
  // {2} in cluster 1 are both perfect singletons.
  std::vector<bool> exclude = {false, true, false, true};
  EXPECT_DOUBLE_EQ(OverallFMeasure(labels, c, &exclude), 1.0);
}

TEST(OverallFMeasureTest, NoiseBecomesSingletons) {
  std::vector<int> labels = {0, 0, 0};
  Clustering c({kNoise, kNoise, kNoise});
  // Each singleton vs class of size 3: p=1, r=1/3, F=1/2.
  EXPECT_NEAR(OverallFMeasure(labels, c), 0.5, 1e-12);
}

TEST(OverallFMeasureTest, AllExcludedIsNaN) {
  std::vector<int> labels = {0, 1};
  Clustering c({0, 1});
  std::vector<bool> exclude = {true, true};
  EXPECT_TRUE(std::isnan(OverallFMeasure(labels, c, &exclude)));
}

TEST(AdjustedRandIndexTest, PerfectIsOneRandomNearZero) {
  std::vector<int> labels = {0, 0, 0, 1, 1, 1};
  EXPECT_DOUBLE_EQ(AdjustedRandIndex(labels, Clustering({2, 2, 2, 0, 0, 0})),
                   1.0);
  // A "random-looking" partition should be far below 1 (can be negative).
  EXPECT_LT(AdjustedRandIndex(labels, Clustering({0, 1, 0, 1, 0, 1})), 0.1);
}

TEST(AdjustedRandIndexTest, KnownSmallExample) {
  // Classic example: labels {0,0,1,1}, clusters {0,0,0,1}.
  // sum_ij C(n_ij,2): n = [[2,0],[1,1]] -> C(2,2)=1.
  // sum_a = C(2,2)+C(2,2) = 2; sum_b = C(3,2)+C(1,2) = 3; total = C(4,2)=6.
  // expected = 2*3/6 = 1; max = 2.5; ARI = (1-1)/(2.5-1) = 0.
  std::vector<int> labels = {0, 0, 1, 1};
  EXPECT_NEAR(AdjustedRandIndex(labels, Clustering({0, 0, 0, 1})), 0.0,
              1e-12);
}

TEST(ExternalMeasuresTest, ExclusionConsistentAcrossMeasures) {
  std::vector<int> labels = {0, 0, 1, 1, 2};
  Clustering c({0, 0, 1, 1, 2});
  std::vector<bool> exclude = {false, false, false, false, true};
  EXPECT_DOUBLE_EQ(OverallFMeasure(labels, c, &exclude), 1.0);
  EXPECT_DOUBLE_EQ(AdjustedRandIndex(labels, c, &exclude), 1.0);
}

}  // namespace
}  // namespace cvcp
