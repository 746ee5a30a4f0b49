#include "core/selectors.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.h"
#include "data/generators.h"
#include "tests/failing_clusterer.h"
#include "tests/geometry_oracle.h"

namespace cvcp {
namespace {

TEST(SelectBySilhouetteTest, PicksTrueKOnSeparatedBlobs) {
  Rng rng(1);
  Dataset data = MakeBlobs("blobs", 3, 30, 2, 40.0, 0.8, &rng);
  Supervision supervision = Supervision::FromConstraints(ConstraintSet{});
  KMeansClusterer clusterer;
  std::vector<int> grid = {2, 3, 4, 5, 6};
  auto sel = SelectBySilhouette(data, supervision, clusterer, grid, &rng);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->best_param, 3);
  EXPECT_GT(sel->best_silhouette, 0.7);
  EXPECT_EQ(sel->silhouettes.size(), 5u);
  EXPECT_EQ(sel->best_clustering.NumClusters(), 3);
}

TEST(SelectBySilhouetteTest, EmptyGridRejected) {
  Rng rng(2);
  Dataset data = MakeBlobs("blobs", 2, 10, 2, 10.0, 1.0, &rng);
  Supervision supervision = Supervision::FromConstraints(ConstraintSet{});
  KMeansClusterer clusterer;
  auto sel = SelectBySilhouette(data, supervision, clusterer, {}, &rng);
  EXPECT_EQ(sel.status().code(), StatusCode::kInvalidArgument);
}

TEST(SelectBySilhouetteTest, SkipsUndefinedSilhouettes) {
  Rng rng(3);
  Dataset data = MakeBlobs("blobs", 2, 15, 2, 20.0, 1.0, &rng);
  Supervision supervision = Supervision::FromConstraints(ConstraintSet{});
  KMeansClusterer clusterer;
  // k=1 yields an undefined silhouette; selection must still succeed.
  std::vector<int> grid = {1, 2};
  auto sel = SelectBySilhouette(data, supervision, clusterer, grid, &rng);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->best_param, 2);
  EXPECT_TRUE(std::isnan(sel->silhouettes[0]));
}

TEST(SelectBySilhouetteTest, ForksByGridIndexMatchingTheHarnessSweep) {
  Rng data_rng(5);
  Dataset data = MakeBlobs("blobs", 3, 25, 2, 30.0, 1.0, &data_rng);
  Supervision supervision = Supervision::FromConstraints(ConstraintSet{});
  KMeansClusterer clusterer;
  // Duplicates and unsorted entries on purpose: forking by grid *value*
  // used to give duplicate entries identical streams and disagree with the
  // harness sweep, which forks by grid index.
  std::vector<int> grid = {4, 2, 3, 2};
  Rng sel_rng(42);
  auto sel = SelectBySilhouette(data, supervision, clusterer, grid, &sel_rng);
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel->silhouettes.size(), grid.size());

  // The harness's full-supervision sweep: same rng seed, fork by index.
  // Every per-position silhouette must agree bitwise with the cache-less
  // reference.
  for (size_t gi = 0; gi < grid.size(); ++gi) {
    Rng run_rng = Rng(42).Fork(gi);
    auto clustering =
        clusterer.Cluster(data, supervision, grid[gi], &run_rng);
    ASSERT_TRUE(clustering.ok()) << "grid index " << gi;
    const double sil = ReferenceSilhouette(data.points(), clustering.value());
    EXPECT_EQ(std::bit_cast<uint64_t>(sil),
              std::bit_cast<uint64_t>(sel->silhouettes[gi]))
        << "grid index " << gi;
  }
}

TEST(SelectBySilhouetteTest, FirstFailingGridValueWinsAtEveryWidth) {
  Rng data_rng(6);
  Dataset data = MakeBlobs("blobs", 3, 25, 2, 30.0, 1.0, &data_rng);
  Supervision supervision = Supervision::FromConstraints(ConstraintSet{});
  FailAtKClusterer clusterer({4, 6});
  std::vector<int> grid = {2, 3, 4, 5, 6, 7, 8};
  for (int threads : {1, 2, 8}) {
    ClusterContext context;
    context.exec.threads = threads;
    Rng rng(7);
    auto sel =
        SelectBySilhouette(data, supervision, clusterer, grid, &rng, context);
    EXPECT_EQ(sel.status().code(), StatusCode::kInternal)
        << "threads " << threads;
    EXPECT_EQ(sel.status().message(), FailAtKClusterer::Message(4))
        << "threads " << threads;
  }
}

// The full-supervision sweep fans out under the context's width; the
// clusterings and silhouettes must not depend on it, and silhouettes stay
// NaN unless asked for.
TEST(SweepGridTest, ByteIdenticalAtEveryWidth) {
  Rng data_rng(8);
  Dataset data = MakeBlobs("blobs", 3, 25, 2, 30.0, 1.0, &data_rng);
  Supervision supervision = Supervision::FromConstraints(ConstraintSet{});
  KMeansClusterer clusterer;
  std::vector<int> grid = {2, 3, 4, 3, 5};
  Rng serial_rng(9);
  auto serial = SweepGrid(data, supervision, clusterer, grid, &serial_rng,
                          ClusterContext{}, /*with_silhouettes=*/true);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_EQ(serial->clusterings.size(), grid.size());
  for (int threads : {2, 8}) {
    for (bool with_silhouettes : {true, false}) {
      ClusterContext context;
      context.exec.threads = threads;
      Rng rng(9);
      auto sweep = SweepGrid(data, supervision, clusterer, grid, &rng,
                             context, with_silhouettes);
      ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
      ASSERT_EQ(sweep->silhouettes.size(), grid.size());
      for (size_t gi = 0; gi < grid.size(); ++gi) {
        EXPECT_EQ(sweep->clusterings[gi].assignment(),
                  serial->clusterings[gi].assignment())
            << "grid index " << gi << ", threads " << threads;
        if (with_silhouettes) {
          EXPECT_EQ(std::bit_cast<uint64_t>(sweep->silhouettes[gi]),
                    std::bit_cast<uint64_t>(serial->silhouettes[gi]))
              << "grid index " << gi << ", threads " << threads;
        } else {
          EXPECT_TRUE(std::isnan(sweep->silhouettes[gi]));
        }
      }
    }
  }
}

TEST(ExpectedQualityTest, MeanOverDefinedEntries) {
  const double nan = std::nan("");
  EXPECT_DOUBLE_EQ(ExpectedQuality(std::vector<double>{0.2, 0.4, 0.6}), 0.4);
  EXPECT_DOUBLE_EQ(ExpectedQuality(std::vector<double>{0.5, nan, 0.7}), 0.6);
  EXPECT_TRUE(std::isnan(ExpectedQuality(std::vector<double>{nan, nan})));
  EXPECT_TRUE(std::isnan(ExpectedQuality(std::vector<double>{})));
}

TEST(OracleIndexTest, MaxWithNaNs) {
  const double nan = std::nan("");
  EXPECT_EQ(OracleIndex(std::vector<double>{0.2, 0.9, 0.5}), 1);
  EXPECT_EQ(OracleIndex(std::vector<double>{nan, 0.1, nan}), 1);
  EXPECT_EQ(OracleIndex(std::vector<double>{nan, nan}), -1);
  EXPECT_EQ(OracleIndex(std::vector<double>{}), -1);
}

}  // namespace
}  // namespace cvcp
