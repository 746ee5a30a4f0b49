#include "cluster/kmeans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>

#include "common/distance.h"
#include "common/rng.h"
#include "data/generators.h"
#include "eval/external_measures.h"

namespace cvcp {
namespace {

/// The naive k-means++ seeding loop: one single-pair distance per point
/// and placed row, with the total summed while the minima are lowered.
/// The oracle for KMeansPlusPlusInit's bits and Rng draws.
Matrix ScalarKMeansPlusPlusInit(const Matrix& points, int k, Rng* rng) {
  const size_t n = points.rows();
  Matrix centroids(static_cast<size_t>(k), points.cols());
  centroids.SetRow(0, points.Row(rng->Index(n)));
  std::vector<double> min_d2(n, std::numeric_limits<double>::infinity());
  for (int c = 1; c < k; ++c) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double d2 = SquaredEuclideanDistance(
          points.Row(i), centroids.Row(static_cast<size_t>(c - 1)));
      min_d2[i] = std::min(min_d2[i], d2);
      total += min_d2[i];
    }
    size_t chosen;
    if (total <= 0.0) {
      chosen = rng->Index(n);
    } else {
      double r = rng->NextDouble() * total;
      chosen = n - 1;
      for (size_t i = 0; i < n; ++i) {
        r -= min_d2[i];
        if (r <= 0.0) {
          chosen = i;
          break;
        }
      }
    }
    centroids.SetRow(static_cast<size_t>(c), points.Row(chosen));
  }
  return centroids;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

TEST(KMeansTest, RecoversWellSeparatedBlobs) {
  Rng rng(1);
  Dataset data = MakeBlobs("blobs", 3, 30, 2, 30.0, 0.5, &rng);
  KMeansConfig config;
  config.k = 3;
  auto result = RunKMeans(data.points(), config, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->clustering.NumClusters(), 3);
  // Perfect recovery expected at this separation.
  const double ari = AdjustedRandIndex(data.labels(), result->clustering);
  EXPECT_GT(ari, 0.99);
  EXPECT_TRUE(result->converged);
}

TEST(KMeansTest, InertiaDecreasesWithK) {
  Rng rng(2);
  Dataset data = MakeBlobs("blobs", 4, 25, 3, 15.0, 1.5, &rng);
  double prev = std::numeric_limits<double>::infinity();
  for (int k = 1; k <= 6; ++k) {
    KMeansConfig config;
    config.k = k;
    config.n_init = 5;
    Rng run_rng(3);
    auto result = RunKMeans(data.points(), config, &run_rng);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->inertia, prev * 1.0001) << "k=" << k;
    prev = result->inertia;
  }
}

TEST(KMeansTest, KOneAssignsEverythingToOneCluster) {
  Rng rng(4);
  Dataset data = MakeBlobs("blobs", 2, 10, 2, 5.0, 1.0, &rng);
  KMeansConfig config;
  config.k = 1;
  auto result = RunKMeans(data.points(), config, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->clustering.NumClusters(), 1);
  EXPECT_EQ(result->clustering.NumNoise(), 0u);
}

TEST(KMeansTest, KEqualsNIsValid) {
  Rng rng(5);
  Matrix points = Matrix::FromRows({{0, 0}, {10, 0}, {0, 10}});
  KMeansConfig config;
  config.k = 3;
  auto result = RunKMeans(points, config, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->clustering.NumClusters(), 3);
  EXPECT_NEAR(result->inertia, 0.0, 1e-12);
}

TEST(KMeansTest, RejectsInvalidConfigs) {
  Rng rng(6);
  Matrix points = Matrix::FromRows({{0, 0}, {1, 1}});
  KMeansConfig config;
  config.k = 0;
  EXPECT_FALSE(RunKMeans(points, config, &rng).ok());
  config.k = 3;  // more clusters than points
  EXPECT_FALSE(RunKMeans(points, config, &rng).ok());
  config.k = 2;
  config.max_iters = 0;
  EXPECT_FALSE(RunKMeans(points, config, &rng).ok());
  config.max_iters = 10;
  config.n_init = 0;
  EXPECT_FALSE(RunKMeans(points, config, &rng).ok());
}

TEST(KMeansTest, DeterministicGivenSeed) {
  Rng data_rng(7);
  Dataset data = MakeBlobs("blobs", 3, 20, 2, 10.0, 1.0, &data_rng);
  KMeansConfig config;
  config.k = 3;
  Rng a(42), b(42);
  auto ra = RunKMeans(data.points(), config, &a);
  auto rb = RunKMeans(data.points(), config, &b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->clustering.assignment(), rb->clustering.assignment());
  EXPECT_DOUBLE_EQ(ra->inertia, rb->inertia);
}

TEST(KMeansPlusPlusTest, CentroidsAreDataPointsAndSpread) {
  Rng rng(8);
  Matrix points = Matrix::FromRows(
      {{0, 0}, {0.1, 0}, {100, 100}, {100.1, 100}, {200, 0}, {200, 0.1}});
  Matrix centroids = KMeansPlusPlusInit(points, 3, &rng);
  EXPECT_EQ(centroids.rows(), 3u);
  // Every centroid must be one of the input points.
  for (size_t c = 0; c < 3; ++c) {
    bool found = false;
    for (size_t i = 0; i < points.rows(); ++i) {
      if (std::equal(centroids.Row(c).begin(), centroids.Row(c).end(),
                     points.Row(i).begin())) {
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
  // With three far-apart pairs, D^2 seeding picks one from each pair (this
  // holds deterministically for this geometry across seeds).
  std::set<int> regions;
  for (size_t c = 0; c < 3; ++c) {
    const double x = centroids.Row(c)[0];
    regions.insert(x < 50 ? 0 : (x < 150 ? 1 : 2));
  }
  EXPECT_EQ(regions.size(), 3u);
}

TEST(KMeansPlusPlusTest, MatchesScalarOracleBitsAndDraws) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    // 3 * (7 + seed) points: n % 4 takes every value, so the batched
    // kernel's tail runs; d = 13 covers the lane tail too.
    Rng data_rng(seed);
    Dataset data = MakeBlobs("kpp", 3, 7 + seed, 13, 5.0, 1.0, &data_rng);
    for (int k : {1, 2, 5, 21}) {
      Rng a(100 + seed), b(100 + seed);
      EXPECT_TRUE(SameBits(KMeansPlusPlusInit(data.points(), k, &a),
                           ScalarKMeansPlusPlusInit(data.points(), k, &b)))
          << "seed " << seed << " k " << k;
      EXPECT_EQ(a.NextUint64(), b.NextUint64());  // same number of draws
    }
  }
  // Coincident points: every total is 0, so each later row is an
  // Index(n) draw.
  const Matrix same(5, 2, 1.5);
  Rng a(3), b(3);
  EXPECT_TRUE(SameBits(KMeansPlusPlusInit(same, 4, &a),
                       ScalarKMeansPlusPlusInit(same, 4, &b)));
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(KMeansPlusPlusTest, FillKeepsPlacedRowsAndStopsWhenFull) {
  Rng data_rng(4);
  Dataset data = MakeBlobs("kpp", 2, 9, 3, 5.0, 1.0, &data_rng);
  Matrix centroids(3, 3, 7.5);
  Rng a(5), b(5);
  KMeansPlusPlusFill(data.points(), 3, &centroids, &a);
  EXPECT_TRUE(SameBits(centroids, Matrix(3, 3, 7.5)));
  EXPECT_EQ(a.NextUint64(), b.NextUint64());  // a full matrix draws nothing

  KMeansPlusPlusFill(data.points(), 1, &centroids, &a);
  for (size_t m = 0; m < 3; ++m) EXPECT_EQ(centroids.At(0, m), 7.5);
  for (size_t c = 1; c < 3; ++c) {
    bool found = false;
    for (size_t i = 0; i < data.points().rows(); ++i) {
      found = found || std::equal(centroids.Row(c).begin(),
                                  centroids.Row(c).end(),
                                  data.points().Row(i).begin());
    }
    EXPECT_TRUE(found) << "row " << c;
  }
}

TEST(KMeansPlusPlusTest, FillReadsPlacedColumnsAndHandsBackItsOwn) {
  // With a d2 block the fill reads the placed rows' columns instead of
  // measuring them, so a block holding their SquaredDistanceColumn
  // entries gives the rows and draws of a fill without one; on return
  // every measured column holds SquaredEuclideanDistance's bits.
  Rng data_rng(6);
  Dataset data = MakeBlobs("kpp", 3, 11, 13, 5.0, 1.0, &data_rng);
  const Matrix& points = data.points();
  const size_t n = points.rows();
  for (size_t placed : {0u, 1u, 2u, 4u}) {
    for (size_t k : {1u, 2u, 4u, 7u}) {
      if (placed > k) continue;
      Matrix seeded(k, points.cols());
      for (size_t h = 0; h < placed; ++h) {
        seeded.SetRow(h, points.Row(3 * h + 1));
      }
      Matrix plain = seeded;
      std::vector<double> d2(n * k, -1.0);
      for (size_t h = 0; h < placed; ++h) {
        SquaredDistanceColumn(points, seeded.Row(h).data(), d2.data() + h, k);
      }
      Rng a(7 + k), b(7 + k);
      const size_t held = KMeansPlusPlusFill(points, placed, &seeded, &a,
                                             d2.data());
      KMeansPlusPlusFill(points, placed, &plain, &b);
      EXPECT_TRUE(SameBits(seeded, plain)) << placed << " " << k;
      EXPECT_EQ(a.NextUint64(), b.NextUint64());
      EXPECT_EQ(held, placed == k ? k : k - 1);
      for (size_t h = 0; h < held; ++h) {
        for (size_t i = 0; i < n; ++i) {
          const double want =
              SquaredEuclideanDistance(points.Row(i), seeded.Row(h));
          EXPECT_EQ(std::memcmp(&d2[i * k + h], &want, sizeof(double)), 0)
              << "placed " << placed << " k " << k << " row " << h;
        }
      }
    }
  }
}

TEST(KMeansTest, MultipleRestartsNeverWorse) {
  Rng data_rng(9);
  Dataset data = MakeBlobs("blobs", 5, 20, 2, 8.0, 1.2, &data_rng);
  KMeansConfig one;
  one.k = 5;
  one.n_init = 1;
  KMeansConfig many = one;
  many.n_init = 10;
  Rng rng_one(10), rng_many(10);
  auto r1 = RunKMeans(data.points(), one, &rng_one);
  auto rn = RunKMeans(data.points(), many, &rng_many);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(rn.ok());
  EXPECT_LE(rn->inertia, r1->inertia * 1.0001);
}

}  // namespace
}  // namespace cvcp
