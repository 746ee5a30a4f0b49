#include "cluster/optics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "data/generators.h"

namespace cvcp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(OpticsTest, OrderIsPermutationOfAllObjects) {
  Rng rng(1);
  Dataset data = MakeBlobs("blobs", 3, 20, 2, 10.0, 1.0, &rng);
  OpticsConfig config;
  config.min_pts = 4;
  auto result = RunOptics(data.points(), config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->order.size(), data.size());
  std::set<size_t> seen(result->order.begin(), result->order.end());
  EXPECT_EQ(seen.size(), data.size());
  EXPECT_EQ(result->reachability.size(), data.size());
  EXPECT_EQ(result->core_distance.size(), data.size());
}

TEST(OpticsTest, FirstReachabilityIsInfinite) {
  Rng rng(2);
  Dataset data = MakeBlobs("blobs", 1, 15, 2, 1.0, 1.0, &rng);
  OpticsConfig config;
  config.min_pts = 3;
  auto result = RunOptics(data.points(), config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reachability[0], kInf);
  // Single dense blob: everything after the first point is reachable.
  for (size_t i = 1; i < result->reachability.size(); ++i) {
    EXPECT_LT(result->reachability[i], kInf) << i;
  }
}

TEST(OpticsTest, CoreDistanceMatchesBruteForce) {
  Rng rng(3);
  Dataset data = MakeBlobs("blobs", 2, 12, 2, 6.0, 1.5, &rng);
  OpticsConfig config;
  config.min_pts = 5;
  auto result = RunOptics(data.points(), config);
  ASSERT_TRUE(result.ok());
  const size_t n = data.size();
  for (size_t p = 0; p < n; ++p) {
    std::vector<double> dists;
    for (size_t o = 0; o < n; ++o) {
      if (o == p) continue;
      dists.push_back(
          EuclideanDistance(data.points().Row(p), data.points().Row(o)));
    }
    std::sort(dists.begin(), dists.end());
    // min_pts-th neighbor including the point itself = 4th other point.
    EXPECT_DOUBLE_EQ(result->core_distance[p], dists[3]) << "point " << p;
  }
}

TEST(OpticsTest, MinPtsOneGivesZeroCoreDistance) {
  Matrix points = Matrix::FromRows({{0, 0}, {1, 0}, {5, 0}});
  OpticsConfig config;
  config.min_pts = 1;
  auto result = RunOptics(points, config);
  ASSERT_TRUE(result.ok());
  for (double cd : result->core_distance) EXPECT_DOUBLE_EQ(cd, 0.0);
}

TEST(OpticsTest, ReachabilityLowerBoundedByCoreDistanceOfPredecessors) {
  // Reachability(o) = max(core(p), d(p, o)) >= min core distance overall.
  Rng rng(4);
  Dataset data = MakeBlobs("blobs", 2, 15, 2, 8.0, 1.0, &rng);
  OpticsConfig config;
  config.min_pts = 4;
  auto result = RunOptics(data.points(), config);
  ASSERT_TRUE(result.ok());
  double min_core = kInf;
  for (double cd : result->core_distance) min_core = std::min(min_core, cd);
  for (size_t i = 1; i < result->reachability.size(); ++i) {
    if (result->reachability[i] < kInf) {
      EXPECT_GE(result->reachability[i], min_core);
    }
  }
}

TEST(OpticsTest, TwoFarBlobsShowReachabilityJump) {
  // Two tight blobs far apart: exactly one interior position has a huge
  // reachability (the jump between blobs).
  Rng rng(5);
  std::vector<GaussianClusterSpec> specs(2);
  specs[0].mean = {0.0, 0.0};
  specs[0].stddevs = {0.3};
  specs[0].size = 20;
  specs[1].mean = {100.0, 0.0};
  specs[1].stddevs = {0.3};
  specs[1].size = 20;
  Dataset data = MakeGaussianMixture("two-far", specs, &rng);
  OpticsConfig config;
  config.min_pts = 4;
  auto result = RunOptics(data.points(), config);
  ASSERT_TRUE(result.ok());
  size_t jumps = 0;
  for (size_t i = 1; i < result->reachability.size(); ++i) {
    if (result->reachability[i] > 50.0) ++jumps;
  }
  EXPECT_EQ(jumps, 1u);
  // And the two blobs are contiguous in the ordering.
  const auto blob_of = [&](size_t obj) { return data.label(obj); };
  size_t switches = 0;
  for (size_t i = 1; i < result->order.size(); ++i) {
    if (blob_of(result->order[i]) != blob_of(result->order[i - 1])) {
      ++switches;
    }
  }
  EXPECT_EQ(switches, 1u);
}

TEST(OpticsTest, DistanceMatrixVariantAgreesWithDirect) {
  Rng rng(6);
  Dataset data = MakeBlobs("blobs", 2, 15, 3, 10.0, 1.0, &rng);
  OpticsConfig config;
  config.min_pts = 3;
  auto direct = RunOptics(data.points(), config);
  auto via_dm = RunOptics(
      DistanceMatrix::Compute(data.points(), Metric::kEuclidean), config);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(via_dm.ok());
  EXPECT_EQ(direct->order, via_dm->order);
  EXPECT_EQ(direct->reachability, via_dm->reachability);
  EXPECT_EQ(direct->core_distance, via_dm->core_distance);
}

TEST(OpticsTest, RejectsInvalidMinPts) {
  Matrix points = Matrix::FromRows({{0, 0}, {1, 1}});
  OpticsConfig config;
  config.min_pts = 0;
  EXPECT_FALSE(RunOptics(points, config).ok());
  config.min_pts = 3;
  EXPECT_FALSE(RunOptics(points, config).ok());
}

TEST(OpticsTest, DeterministicOrdering) {
  Rng rng(7);
  Dataset data = MakeBlobs("blobs", 3, 15, 2, 10.0, 1.0, &rng);
  OpticsConfig config;
  config.min_pts = 4;
  auto a = RunOptics(data.points(), config);
  auto b = RunOptics(data.points(), config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->order, b->order);
}

}  // namespace
}  // namespace cvcp
