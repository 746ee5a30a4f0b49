#include "cluster/clustering.h"

#include <gtest/gtest.h>

namespace cvcp {
namespace {

TEST(ClusteringTest, BasicAccessors) {
  Clustering c({0, 0, 1, kNoise, 1});
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(c.NumClusters(), 2);
  EXPECT_EQ(c.NumNoise(), 1u);
  EXPECT_TRUE(c.IsNoise(3));
  EXPECT_FALSE(c.IsNoise(0));
}

TEST(ClusteringTest, SameClusterSemantics) {
  Clustering c({0, 0, 1, kNoise, kNoise});
  EXPECT_TRUE(c.SameCluster(0, 1));
  EXPECT_FALSE(c.SameCluster(0, 2));
  // Noise is never together with anything — including other noise.
  EXPECT_FALSE(c.SameCluster(3, 4));
  EXPECT_FALSE(c.SameCluster(0, 3));
  // Reflexivity holds for clustered objects, not for noise.
  EXPECT_TRUE(c.SameCluster(0, 0));
  EXPECT_FALSE(c.SameCluster(3, 3));
}

TEST(ClusteringTest, GroupsExcludeNoise) {
  Clustering c({2, 2, 7, kNoise, 7});
  auto groups = c.Groups();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<size_t>{0, 1}));
  EXPECT_EQ(groups[1], (std::vector<size_t>{2, 4}));
}

TEST(ClusteringTest, EmptyClustering) {
  Clustering c;
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.NumClusters(), 0);
  EXPECT_TRUE(c.Groups().empty());
}

}  // namespace
}  // namespace cvcp
