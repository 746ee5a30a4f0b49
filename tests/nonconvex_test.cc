// The paper's motivating contrast: density-based semi-supervised clustering
// recovers arbitrarily-shaped clusters where centroid methods cannot, and
// internal relative criteria (silhouette) mislead on such shapes. These
// tests pin that behaviour on moons/rings/expression-ray data.

#include <gtest/gtest.h>

#include "cluster/dendrogram.h"
#include "cluster/fosc.h"
#include "cluster/kmeans.h"
#include "cluster/optics.h"
#include "cluster/silhouette.h"
#include "common/rng.h"
#include "constraints/oracle.h"
#include "core/cvcp.h"
#include "data/generators.h"
#include "data/paper_suites.h"
#include "eval/external_measures.h"

namespace cvcp {
namespace {

/// FOSC-OPTICSDend with ground-truth constraints from `fraction` labels.
double FoscQuality(const Dataset& data, int min_pts, double fraction,
                   uint64_t seed) {
  Rng rng(seed);
  auto labeled = SampleLabeledObjects(data, fraction, &rng);
  CVCP_CHECK(labeled.ok());
  ConstraintSet constraints =
      ConstraintSet::FromLabels(data.labels(), labeled.value());
  OpticsConfig oc;
  oc.min_pts = min_pts;
  auto optics = RunOptics(data.points(), oc);
  CVCP_CHECK(optics.ok());
  Dendrogram dg = Dendrogram::FromReachability(optics.value());
  auto fosc = ExtractClusters(dg, constraints);
  CVCP_CHECK(fosc.ok());
  return AdjustedRandIndex(data.labels(), fosc->clustering);
}

double KMeansQuality(const Dataset& data, int k, uint64_t seed) {
  Rng rng(seed);
  KMeansConfig config;
  config.k = k;
  config.n_init = 10;
  auto result = RunKMeans(data.points(), config, &rng);
  CVCP_CHECK(result.ok());
  return AdjustedRandIndex(data.labels(), result->clustering);
}

TEST(NonConvexTest, MoonsDensityBeatsCentroid) {
  Rng rng(1);
  Dataset moons = MakeTwoMoons("moons", 120, 0.06, &rng);
  const double fosc = FoscQuality(moons, 5, 0.10, 2);
  const double km = KMeansQuality(moons, 2, 2);
  EXPECT_GT(fosc, 0.9);
  EXPECT_LT(km, 0.7);
  EXPECT_GT(fosc, km);
}

TEST(NonConvexTest, RingsDensityBeatsCentroid) {
  Rng rng(3);
  Dataset rings = MakeRings("rings", {1.0, 4.0, 8.0}, 80, 0.08, &rng);
  const double fosc = FoscQuality(rings, 5, 0.10, 4);
  const double km = KMeansQuality(rings, 3, 4);
  EXPECT_GT(fosc, 0.9);
  EXPECT_LT(km, 0.5);
}

TEST(NonConvexTest, ZyeastLikeReproducesParadigmGap) {
  // The paper's Tables 5-16: FOSC-OPTICSDend scores much higher than
  // MPCKMeans on Zyeast. Check with ground-truth-derived supervision.
  Dataset zyeast = MakeZyeastLike(20140324);
  const double fosc = FoscQuality(zyeast, 3, 0.10, 5);

  Rng rng(6);
  auto labeled = SampleLabeledObjects(zyeast, 0.10, &rng);
  ASSERT_TRUE(labeled.ok());
  ConstraintSet constraints =
      ConstraintSet::FromLabels(zyeast.labels(), labeled.value());
  MpckMeansConfig config;
  config.k = 4;
  auto mpck = RunMpckMeans(zyeast.points(), constraints, config, &rng);
  ASSERT_TRUE(mpck.ok());
  const double mpck_ari = AdjustedRandIndex(zyeast.labels(), mpck->clustering);

  EXPECT_GT(fosc, mpck_ari);
  EXPECT_GT(fosc, 0.8);
}

TEST(NonConvexTest, SilhouetteMisleadsOnMoons) {
  // Silhouette prefers a convex split of the moons over the true one —
  // the paper's argument for why internal criteria cannot replace CVCP on
  // arbitrary shapes.
  Rng rng(7);
  Dataset moons = MakeTwoMoons("moons", 120, 0.06, &rng);
  Clustering truth(moons.labels());
  KMeansConfig config;
  config.k = 2;
  config.n_init = 10;
  auto km = RunKMeans(moons.points(), config, &rng);
  ASSERT_TRUE(km.ok());
  const DistanceMatrix distances =
      DistanceMatrix::Compute(moons.points(), Metric::kEuclidean);
  const double sil_truth = SilhouetteCoefficient(distances, truth);
  const double sil_kmeans = SilhouetteCoefficient(distances, km->clustering);
  EXPECT_GT(sil_kmeans, sil_truth);
}

TEST(NonConvexTest, CvcpPicksWorkingMinPtsOnMoons) {
  Rng rng(8);
  Dataset moons = MakeTwoMoons("moons", 120, 0.06, &rng);
  auto labeled = SampleLabeledObjects(moons, 0.15, &rng);
  ASSERT_TRUE(labeled.ok());
  Supervision supervision = Supervision::FromLabels(moons, labeled.value());
  FoscOpticsDendClusterer clusterer;
  CvcpConfig config;
  config.cv.n_folds = 5;
  config.param_grid = DefaultMinPtsGrid();
  auto report = RunCvcp(moons, supervision, clusterer, config, &rng);
  ASSERT_TRUE(report.ok());
  std::vector<bool> exclude = supervision.InvolvementMask(moons.size());
  const double f =
      OverallFMeasure(moons.labels(), report->final_clustering, &exclude);
  EXPECT_GT(f, 0.85);
}

}  // namespace
}  // namespace cvcp
