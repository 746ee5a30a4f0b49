#include "cluster/fosc.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "cluster/optics.h"
#include "common/rng.h"
#include "data/generators.h"
#include "eval/external_measures.h"

namespace cvcp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

OpticsResult FakePlot(std::vector<size_t> order, std::vector<double> reach) {
  OpticsResult r;
  r.order = std::move(order);
  r.reachability = std::move(reach);
  r.core_distance.assign(r.order.size(), 0.0);
  return r;
}

/// Two clear blobs in the plot: positions 0-2 and 3-5 separated by a big
/// jump. Objects in plot order are 0..5.
Dendrogram TwoBlobDendrogram() {
  return Dendrogram::FromReachability(
      FakePlot({0, 1, 2, 3, 4, 5}, {kInf, 1.0, 1.0, 10.0, 1.0, 1.0}));
}

TEST(FoscTest, ExtractsConstraintConsistentClusters) {
  Dendrogram dg = TwoBlobDendrogram();
  ConstraintSet constraints;
  ASSERT_TRUE(constraints.AddMustLink(0, 1).ok());
  ASSERT_TRUE(constraints.AddMustLink(4, 5).ok());
  ASSERT_TRUE(constraints.AddCannotLink(2, 3).ok());
  auto result = ExtractClusters(dg, constraints);
  ASSERT_TRUE(result.ok());
  const Clustering& c = result->clustering;
  EXPECT_TRUE(c.SameCluster(0, 1));
  EXPECT_TRUE(c.SameCluster(0, 2));
  EXPECT_TRUE(c.SameCluster(3, 4));
  EXPECT_FALSE(c.SameCluster(2, 3));
  EXPECT_NEAR(result->constraint_satisfaction, 1.0, 1e-12);
  EXPECT_EQ(result->selected_nodes.size(), 2u);
}

TEST(FoscTest, RootNeverSelectedByDefault) {
  Dendrogram dg = TwoBlobDendrogram();
  ConstraintSet constraints;
  // Only must-links across the two blobs: the root would satisfy them, but
  // it is excluded, so the best proper selection is chosen instead.
  ASSERT_TRUE(constraints.AddMustLink(0, 5).ok());
  auto result = ExtractClusters(dg, constraints);
  ASSERT_TRUE(result.ok());
  for (int id : result->selected_nodes) EXPECT_NE(id, dg.root());
}

TEST(FoscTest, UnselectedObjectsAreNoise) {
  Dendrogram dg = TwoBlobDendrogram();
  ConstraintSet constraints;
  // Constraints only inside the left blob: right blob earns nothing and
  // stays noise under the pure semi-supervised objective.
  ASSERT_TRUE(constraints.AddMustLink(0, 1).ok());
  ASSERT_TRUE(constraints.AddMustLink(1, 2).ok());
  auto result = ExtractClusters(dg, constraints);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->clustering.IsNoise(0));
  EXPECT_TRUE(result->clustering.IsNoise(3));
  EXPECT_TRUE(result->clustering.IsNoise(4));
  EXPECT_TRUE(result->clustering.IsNoise(5));
}

TEST(FoscTest, CannotLinkHalfCreditForNoisePartner) {
  Dendrogram dg = TwoBlobDendrogram();
  ConstraintSet constraints;
  // CL(2,3) with only the left blob selectable-worthy: ML inside left blob
  // plus the CL. Left blob selected; 3 stays noise -> CL earns 1/2.
  ASSERT_TRUE(constraints.AddMustLink(0, 1).ok());
  ASSERT_TRUE(constraints.AddMustLink(1, 2).ok());
  ASSERT_TRUE(constraints.AddCannotLink(2, 3).ok());
  auto result = ExtractClusters(dg, constraints);
  ASSERT_TRUE(result.ok());
  // Best: select left blob (earns ML 2.0 + CL 0.5 = 2.5) and possibly the
  // right blob (adds CL's other half). Right blob has J = 0.5 > 0, so it IS
  // selected too: total = 3 constraints fully satisfied.
  EXPECT_NEAR(result->constraint_satisfaction, 1.0, 1e-12);
  EXPECT_FALSE(result->clustering.IsNoise(3));
}

/// Brute-force optimum over all valid (antichain, covering-free) selections
/// of eligible nodes (at least two objects, not the root), maximizing the
/// same half-credit objective.
double BruteForceBest(const Dendrogram& dg, const ConstraintSet& constraints) {
  const size_t num_nodes = dg.num_nodes();
  std::vector<int> eligible;
  for (size_t id = 0; id < num_nodes; ++id) {
    const DendrogramNode& nd = dg.node(static_cast<int>(id));
    if (nd.size() < 2) continue;
    if (static_cast<int>(id) == dg.root()) continue;
    eligible.push_back(static_cast<int>(id));
  }
  auto j_of = [&](int id) {
    // Objects of the node.
    std::set<size_t> members;
    for (size_t o : dg.MembersOf(id)) members.insert(o);
    double j = 0.0;
    for (const Constraint& c : constraints.all()) {
      const bool a_in = members.count(c.a) > 0;
      const bool b_in = members.count(c.b) > 0;
      if (c.type == ConstraintType::kMustLink) {
        if (a_in && b_in) j += 1.0;
      } else {
        if (a_in && !b_in) j += 0.5;
        if (b_in && !a_in) j += 0.5;
      }
    }
    return j;
  };
  auto disjoint = [&](int a, int b) {
    const DendrogramNode& na = dg.node(a);
    const DendrogramNode& nb = dg.node(b);
    return na.end <= nb.begin || nb.end <= na.begin;
  };
  double best = 0.0;
  const size_t m = eligible.size();
  CVCP_CHECK_LE(m, 20u);
  for (size_t mask = 0; mask < (size_t{1} << m); ++mask) {
    std::vector<int> chosen;
    for (size_t b = 0; b < m; ++b) {
      if (mask & (size_t{1} << b)) chosen.push_back(eligible[b]);
    }
    bool valid = true;
    for (size_t i = 0; i < chosen.size() && valid; ++i) {
      for (size_t j = i + 1; j < chosen.size() && valid; ++j) {
        valid = disjoint(chosen[i], chosen[j]);
      }
    }
    if (!valid) continue;
    double total = 0.0;
    for (int id : chosen) total += j_of(id);
    best = std::max(best, total);
  }
  const double scale =
      constraints.empty() ? 1.0 : static_cast<double>(constraints.size());
  return best / scale;
}

TEST(FoscTest, DynamicProgramMatchesBruteForceOnRandomInstances) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    // Random plot over 8 objects, random constraints.
    std::vector<size_t> order = rng.Permutation(8);
    std::vector<double> reach(8);
    reach[0] = kInf;
    for (size_t i = 1; i < 8; ++i) reach[i] = rng.Uniform(0.5, 10.0);
    Dendrogram dg = Dendrogram::FromReachability(FakePlot(order, reach));
    ConstraintSet constraints;
    for (int c = 0; c < 6; ++c) {
      const size_t a = rng.Index(8);
      const size_t b = rng.Index(8);
      if (a == b) continue;
      const ConstraintType type = rng.NextDouble() < 0.5
                                      ? ConstraintType::kMustLink
                                      : ConstraintType::kCannotLink;
      (void)constraints.Add(a, b, type);  // conflicts silently skipped
    }
    auto result = ExtractClusters(dg, constraints);
    ASSERT_TRUE(result.ok());
    const double brute = BruteForceBest(dg, constraints);
    EXPECT_NEAR(result->objective, brute, 1e-9) << "seed " << seed;
  }
}

TEST(FoscTest, ConstraintBeyondDendrogramRejected) {
  Dendrogram dg = TwoBlobDendrogram();
  ConstraintSet constraints;
  ASSERT_TRUE(constraints.AddMustLink(0, 99).ok());
  auto result = ExtractClusters(dg, constraints);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(FoscTest, EndToEndWithOpticsOnBlobs) {
  Rng rng(42);
  Dataset data = MakeBlobs("blobs", 3, 25, 2, 30.0, 0.6, &rng);
  OpticsConfig optics_config;
  optics_config.min_pts = 4;
  auto optics = RunOptics(data.points(), optics_config);
  ASSERT_TRUE(optics.ok());
  Dendrogram dg = Dendrogram::FromReachability(optics.value());

  // Ground-truth constraints from 15 labeled objects.
  std::vector<size_t> objects;
  for (size_t i = 0; i < data.size(); i += 5) objects.push_back(i);
  ConstraintSet constraints =
      ConstraintSet::FromLabels(data.labels(), objects);
  auto result = ExtractClusters(dg, constraints);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->clustering.NumClusters(), 3);
  EXPECT_GT(OverallFMeasure(data.labels(), result->clustering), 0.9);
}

}  // namespace
}  // namespace cvcp
