#include "cluster/silhouette.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "tests/geometry_oracle.h"

namespace cvcp {
namespace {

/// The silhouette of `clustering` over `points`' pairwise distances.
double Silhouette(const Matrix& points, const Clustering& clustering) {
  return SilhouetteCoefficient(
      DistanceMatrix::Compute(points, Metric::kEuclidean), clustering);
}

TEST(SilhouetteTest, HandComputedTwoClusters) {
  // Points: {0}, {1} in cluster 0; {10}, {11} in cluster 1 (1-d).
  Matrix points = Matrix::FromRows({{0}, {1}, {10}, {11}});
  Clustering c({0, 0, 1, 1});
  // For point 0: a = 1, b = (10+11)/2 = 10.5, s = (10.5-1)/10.5.
  // Symmetric for the others with b = 9.5 or 10.5.
  const double s0 = (10.5 - 1.0) / 10.5;
  const double s1 = (9.5 - 1.0) / 9.5;
  const double expected = 0.5 * (s0 + s1);
  EXPECT_NEAR(Silhouette(points, c), expected, 1e-12);
}

TEST(SilhouetteTest, PerfectSeparationNearOne) {
  Rng rng(1);
  Dataset data = MakeBlobs("blobs", 2, 30, 2, 100.0, 0.5, &rng);
  Clustering c(data.labels());
  EXPECT_GT(Silhouette(data.points(), c), 0.95);
}

TEST(SilhouetteTest, RandomAssignmentNearZeroOrNegative) {
  Rng rng(2);
  Dataset data = MakeBlobs("blobs", 1, 60, 2, 1.0, 1.0, &rng);
  std::vector<int> random_assign(60);
  for (auto& a : random_assign) a = static_cast<int>(rng.Index(3));
  Clustering c(random_assign);
  EXPECT_LT(Silhouette(data.points(), c), 0.2);
}

TEST(SilhouetteTest, UndefinedForSingleCluster) {
  Matrix points = Matrix::FromRows({{0}, {1}, {2}});
  Clustering c({0, 0, 0});
  EXPECT_TRUE(std::isnan(Silhouette(points, c)));
}

TEST(SilhouetteTest, NoiseIgnored) {
  Matrix points = Matrix::FromRows({{0}, {1}, {10}, {11}, {500}});
  Clustering with_noise({0, 0, 1, 1, kNoise});
  Clustering without({0, 0, 1, 1});
  Matrix first4 = Matrix::FromRows({{0}, {1}, {10}, {11}});
  EXPECT_NEAR(Silhouette(points, with_noise),
              Silhouette(first4, without), 1e-12);
}

TEST(SilhouetteTest, SingletonClusterContributesZero) {
  // Cluster 1 is a singleton: s = 0 by convention; it still counts in the
  // denominator.
  Matrix points = Matrix::FromRows({{0}, {1}, {100}});
  Clustering c({0, 0, 1});
  // Points 0,1: a = 1, b = 100 or 99 -> s ~= 0.99; point 2: s = 0.
  const double s0 = (100.0 - 1.0) / 100.0;
  const double s1 = (99.0 - 1.0) / 99.0;
  EXPECT_NEAR(Silhouette(points, c), (s0 + s1 + 0.0) / 3.0,
              1e-12);
}

TEST(SilhouetteTest, GroupSumRewriteBitIdenticalToRescan) {
  // The single-pass group-sum implementation claims bitwise equality with
  // the naive per-object rescan (same summation order, an
  // argument-symmetric kernel). Pin it on irregular data with noise,
  // singletons, and duplicate points.
  Rng rng(71);
  Dataset data = MakeBlobs("pin", 4, 20, 3, 8.0, 2.0, &rng);
  std::vector<int> assignment = data.labels();
  ASSERT_EQ(assignment.size(), 80u);
  // Sprinkle noise, a singleton cluster, and an imbalanced relabel.
  assignment[3] = kNoise;
  assignment[17] = kNoise;
  assignment[41] = 7;  // singleton cluster id
  for (size_t i = 60; i < 70 && i < assignment.size(); ++i) {
    assignment[i] = 0;
  }
  Clustering clustering(assignment);
  const double fast = Silhouette(data.points(), clustering);
  const double reference = ReferenceSilhouette(data.points(), clustering);
  EXPECT_EQ(std::bit_cast<uint64_t>(fast), std::bit_cast<uint64_t>(reference));
}

TEST(SilhouetteTest, GroupSumRewriteBitIdenticalOnRandomClusterings) {
  Rng rng(72);
  Dataset data = MakeBlobs("rand", 3, 15, 2, 5.0, 1.5, &rng);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int> assignment(data.size());
    for (auto& a : assignment) {
      const size_t draw = rng.Index(5);
      a = draw == 4 ? kNoise : static_cast<int>(draw);
    }
    Clustering clustering(assignment);
    const double fast = Silhouette(data.points(), clustering);
    const double reference = ReferenceSilhouette(data.points(), clustering);
    EXPECT_EQ(std::bit_cast<uint64_t>(fast),
              std::bit_cast<uint64_t>(reference))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace cvcp
