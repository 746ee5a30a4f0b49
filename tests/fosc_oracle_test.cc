// Differential oracle for FOSC extraction. ExtractClusters computes the
// constraint objective J from LCA marks and one subtree sum; the oracle
// below is the path-walk extraction it replaced, kept whole (J by walking
// every constraint's leaf-to-root paths, the lifetime-stability blend,
// then the same DP and backtrack). ExtractClusters has no blend and fixes
// the candidate rule; the oracle runs at the settings that reproduce it,
// so the suite also shows that the blend's stability term adds exactly
// +0.0 at alpha = 1, +inf runs included. Rng-driven instances assert bit
// equality of the objective, the constraint satisfaction, the selected
// nodes and the assignment.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "cluster/dendrogram.h"
#include "cluster/fosc.h"
#include "cluster/optics.h"
#include "common/rng.h"
#include "common/strings.h"
#include "data/generators.h"

namespace cvcp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The oracle's settings. The defaults are the ones ExtractClusters fixes:
/// candidates of at least two objects, never the root, and all weight on
/// the constraint objective.
struct PathWalkConfig {
  size_t min_cluster_size = 2;
  double alpha = 1.0;  ///< constraint objective vs. lifetime stability
  bool allow_root = false;
};

double OracleHeightCap(const Dendrogram& dg) {
  double max_finite = 0.0;
  for (size_t id = 0; id < dg.num_nodes(); ++id) {
    const double h = dg.node(static_cast<int>(id)).height;
    if (std::isfinite(h)) max_finite = std::max(max_finite, h);
  }
  return max_finite > 0.0 ? 1.5 * max_finite : 1.0;
}

/// The path-walk extraction: O(|C| * depth) for J.
Result<FoscResult> PathWalkExtractClusters(const Dendrogram& dendrogram,
                                           const ConstraintSet& constraints,
                                           const PathWalkConfig& config) {
  if (config.min_cluster_size < 1) {
    return Status::InvalidArgument("min_cluster_size must be >= 1");
  }
  if (config.alpha < 0.0 || config.alpha > 1.0) {
    return Status::InvalidArgument(
        Format("alpha must be in [0, 1], got %f", config.alpha));
  }
  const size_t n = dendrogram.num_objects();
  const size_t num_nodes = dendrogram.num_nodes();

  std::vector<size_t> pos_of(n, SIZE_MAX);
  for (size_t leaf = 0; leaf < n; ++leaf) {
    const size_t obj = dendrogram.LeafObject(static_cast<int>(leaf));
    if (obj >= n || pos_of[obj] != SIZE_MAX) {
      return Status::Internal("dendrogram leaf order is not a permutation");
    }
    pos_of[obj] = leaf;
  }

  std::vector<double> j_value(num_nodes, 0.0);
  auto contains = [&](int id, size_t pos) {
    const DendrogramNode& nd = dendrogram.node(id);
    return nd.begin <= pos && pos < nd.end;
  };
  for (const Constraint& c : constraints.all()) {
    if (c.a >= n || c.b >= n) {
      return Status::InvalidArgument(
          Format("constraint %s outside dendrogram of %zu objects",
                 ConstraintToString(c).c_str(), n));
    }
    const size_t pa = pos_of[c.a];
    const size_t pb = pos_of[c.b];
    if (c.type == ConstraintType::kMustLink) {
      // +1 on every node containing both endpoints.
      int id = static_cast<int>(pa);
      while (!contains(id, pb)) id = dendrogram.node(id).parent;
      for (; id >= 0; id = dendrogram.node(id).parent) j_value[id] += 1.0;
    } else {
      // +1/2 on every node containing exactly one endpoint.
      int id = static_cast<int>(pa);
      while (!contains(id, pb)) {
        j_value[id] += 0.5;
        id = dendrogram.node(id).parent;
      }
      id = static_cast<int>(pb);
      while (!contains(id, pa)) {
        j_value[id] += 0.5;
        id = dendrogram.node(id).parent;
      }
    }
  }

  std::vector<double> stability(num_nodes, 0.0);
  const double cap = OracleHeightCap(dendrogram);
  for (size_t id = 0; id < num_nodes; ++id) {
    const DendrogramNode& nd = dendrogram.node(static_cast<int>(id));
    if (nd.parent < 0) continue;
    double h_parent = dendrogram.node(nd.parent).height;
    double h_node = nd.is_leaf() ? 0.0 : nd.height;
    if (!std::isfinite(h_parent)) h_parent = cap;
    if (!std::isfinite(h_node)) h_node = cap;
    stability[id] =
        static_cast<double>(nd.size()) * std::max(0.0, h_parent - h_node);
  }

  const double j_scale =
      constraints.empty() ? 1.0 : static_cast<double>(constraints.size());
  auto eligible = [&](int id) {
    const DendrogramNode& nd = dendrogram.node(id);
    if (nd.size() < config.min_cluster_size) return false;
    if (id == dendrogram.root() && !config.allow_root) return false;
    return true;
  };

  std::vector<double> best(num_nodes, 0.0);
  std::vector<bool> take(num_nodes, false);
  std::vector<size_t> bottom_up;
  bottom_up.reserve(num_nodes);
  for (size_t id = 0; id < n; ++id) bottom_up.push_back(id);
  for (size_t id = num_nodes; id-- > n;) bottom_up.push_back(id);

  double stability_norm = 1.0;
  if (config.alpha < 1.0) {
    std::vector<double> sbest(num_nodes, 0.0);
    for (size_t id : bottom_up) {
      const DendrogramNode& nd = dendrogram.node(static_cast<int>(id));
      const double children = nd.is_leaf()
                                  ? 0.0
                                  : sbest[static_cast<size_t>(nd.left)] +
                                        sbest[static_cast<size_t>(nd.right)];
      const double own =
          eligible(static_cast<int>(id)) ? stability[id] : -kInf;
      sbest[id] = std::max(children, own);
    }
    if (sbest[static_cast<size_t>(dendrogram.root())] > 0.0) {
      stability_norm = sbest[static_cast<size_t>(dendrogram.root())];
    }
  }

  auto blended = [&](size_t id) {
    const double j_term = j_value[id] / j_scale;
    const double s_term = stability[id] / stability_norm;
    return config.alpha * j_term + (1.0 - config.alpha) * s_term;
  };

  constexpr double kTieEps = 1e-9;
  for (size_t id : bottom_up) {
    const DendrogramNode& nd = dendrogram.node(static_cast<int>(id));
    const double children = nd.is_leaf()
                                ? 0.0
                                : best[static_cast<size_t>(nd.left)] +
                                      best[static_cast<size_t>(nd.right)];
    double own = -kInf;
    if (eligible(static_cast<int>(id))) own = blended(id);
    const bool take_node =
        own > children + kTieEps ||
        (own > kTieEps && own >= children - kTieEps);
    if (take_node) {
      best[id] = std::max(own, children);
      take[id] = true;
    } else {
      best[id] = children;
      take[id] = false;
    }
  }

  FoscResult result;
  std::vector<int> assignment(n, kNoise);
  std::vector<int> stack = {dendrogram.root()};
  double selected_j = 0.0;
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (take[static_cast<size_t>(id)]) {
      const int cluster = static_cast<int>(result.selected_nodes.size());
      result.selected_nodes.push_back(id);
      selected_j += j_value[static_cast<size_t>(id)];
      for (size_t obj : dendrogram.MembersOf(id)) {
        assignment[obj] = cluster;
      }
      continue;
    }
    const DendrogramNode& nd = dendrogram.node(id);
    if (!nd.is_leaf()) {
      stack.push_back(nd.right);
      stack.push_back(nd.left);
    }
  }

  result.clustering = Clustering(std::move(assignment));
  result.objective = best[static_cast<size_t>(dendrogram.root())];
  result.constraint_satisfaction =
      constraints.empty()
          ? std::numeric_limits<double>::quiet_NaN()
          : selected_j / static_cast<double>(constraints.size());
  return result;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Asserts ExtractClusters == the path-walk oracle, bit for bit.
void ExpectMatchesOracle(const Dendrogram& dg,
                         const ConstraintSet& constraints,
                         const std::string& at) {
  const Result<FoscResult> got = ExtractClusters(dg, constraints);
  const Result<FoscResult> want =
      PathWalkExtractClusters(dg, constraints, PathWalkConfig{});
  ASSERT_TRUE(got.ok()) << at << ": " << got.status().ToString();
  ASSERT_TRUE(want.ok()) << at << ": " << want.status().ToString();
  EXPECT_TRUE(SameBits(got->objective, want->objective))
      << at << ": objective " << got->objective << " vs " << want->objective;
  EXPECT_TRUE(SameBits(got->constraint_satisfaction,
                       want->constraint_satisfaction))
      << at << ": satisfaction " << got->constraint_satisfaction << " vs "
      << want->constraint_satisfaction;
  EXPECT_EQ(got->selected_nodes, want->selected_nodes) << at;
  EXPECT_EQ(got->clustering.assignment(), want->clustering.assignment())
      << at;
}

/// A random reachability plot over n objects in random plot order.
/// `levels` > 0 draws the finite values from {1, ..., levels}, so equal
/// heights compete for every split; 0 draws them continuously. Each
/// position starts a run of one to three +inf values with probability
/// `inf_rate`, splitting the plot into components.
OpticsResult RandomPlot(size_t n, size_t levels, double inf_rate, Rng* rng) {
  OpticsResult plot;
  plot.order = rng->Permutation(n);
  plot.reachability.assign(n, kInf);
  plot.core_distance.assign(n, 0.0);
  size_t inf_left = 0;
  for (size_t i = 1; i < n; ++i) {
    if (inf_left == 0 && rng->NextDouble() < inf_rate) {
      inf_left = 1 + rng->Index(3);
    }
    if (inf_left > 0) {
      --inf_left;
      continue;
    }
    plot.reachability[i] =
        levels > 0 ? static_cast<double>(1 + rng->Index(levels))
                   : rng->Uniform(0.1, 10.0);
  }
  return plot;
}

/// Up to `max_count` random pairs of random type; a pair that conflicts
/// with an earlier one is skipped.
ConstraintSet RandomConstraints(size_t n, size_t max_count, Rng* rng) {
  ConstraintSet constraints;
  if (n < 2) return constraints;
  const size_t count = rng->Index(max_count + 1);
  for (size_t c = 0; c < count; ++c) {
    const size_t a = rng->Index(n);
    const size_t b = rng->Index(n);
    if (a == b) continue;
    const ConstraintType type = rng->NextDouble() < 0.5
                                    ? ConstraintType::kMustLink
                                    : ConstraintType::kCannotLink;
    (void)constraints.Add(a, b, type);
  }
  return constraints;
}

/// All pairs among up to `max_labeled` objects under random labels from
/// one to four classes, as ConstraintSet::FromLabels derives them.
ConstraintSet LabelConstraints(size_t n, size_t max_labeled, Rng* rng) {
  const size_t classes = 1 + rng->Index(4);
  std::vector<int> labels(n);
  for (int& label : labels) label = static_cast<int>(rng->Index(classes));
  const size_t labeled = rng->Index(std::min(n, max_labeled) + 1);
  std::vector<size_t> objects = rng->SampleWithoutReplacement(n, labeled);
  std::sort(objects.begin(), objects.end());
  return ConstraintSet::FromLabels(labels, objects);
}

TEST(FoscOracleTest, MatchesPathWalkOnRandomPlots) {
  const size_t kSizes[] = {1,  2,  3,   4,   5,   6,   8,   11,   16,   23,
                           32, 50, 80, 128, 200, 320, 500, 800, 1250, 2000};
  // (levels, inf_rate): continuous, continuous with components, and two
  // tie-heavy quantizations with components.
  const std::pair<size_t, double> kPlotKinds[] = {
      {0, 0.0}, {0, 0.05}, {2, 0.02}, {5, 0.1}};
  uint64_t seed = 0;
  for (size_t n : kSizes) {
    for (const auto& [levels, inf_rate] : kPlotKinds) {
      Rng rng(++seed);
      const Dendrogram dg =
          Dendrogram::FromReachability(RandomPlot(n, levels, inf_rate, &rng));
      const std::string where =
          Format("n=%zu levels=%zu inf_rate=%g", n, levels, inf_rate);
      ExpectMatchesOracle(dg, ConstraintSet{}, where + " empty");
      ExpectMatchesOracle(dg, RandomConstraints(n, std::min(3 * n, size_t{400}),
                                                &rng),
                          where + " random");
      ExpectMatchesOracle(dg, LabelConstraints(n, 30, &rng),
                          where + " labels");
      if (HasFailure()) return;
    }
  }
}

TEST(FoscOracleTest, MatchesPathWalkOnOpticsPlots) {
  Rng rng(7);
  const Dataset data = MakeBlobs("blobs", 4, 30, 3, 8.0, 1.5, &rng);
  for (int min_pts : {2, 5, 12}) {
    OpticsConfig optics_config;
    optics_config.min_pts = min_pts;
    const Result<OpticsResult> optics = RunOptics(data.points(), optics_config);
    ASSERT_TRUE(optics.ok());
    const Dendrogram dg = Dendrogram::FromReachability(optics.value());
    for (double fraction : {0.05, 0.2, 0.5}) {
      std::vector<size_t> objects = rng.SampleWithoutReplacement(
          data.size(),
          static_cast<size_t>(fraction * static_cast<double>(data.size())));
      std::sort(objects.begin(), objects.end());
      ExpectMatchesOracle(dg, ConstraintSet::FromLabels(data.labels(), objects),
                          Format("min_pts=%d fraction=%g", min_pts, fraction));
    }
  }
}

TEST(FoscOracleTest, OutOfRangeConstraintFailsLikeThePathWalk) {
  Rng rng(3);
  const Dendrogram dg =
      Dendrogram::FromReachability(RandomPlot(6, 2, 0.0, &rng));
  ConstraintSet constraints;
  ASSERT_TRUE(constraints.AddMustLink(0, 1).ok());
  ASSERT_TRUE(constraints.AddCannotLink(2, 9).ok());
  ASSERT_TRUE(constraints.AddMustLink(3, 12).ok());
  const Result<FoscResult> got = ExtractClusters(dg, constraints);
  const Result<FoscResult> want =
      PathWalkExtractClusters(dg, constraints, PathWalkConfig{});
  ASSERT_FALSE(got.ok());
  ASSERT_FALSE(want.ok());
  EXPECT_EQ(got.status().ToString(), want.status().ToString());

  // A single object: every constraint names an object outside it.
  const Dendrogram single =
      Dendrogram::FromReachability(RandomPlot(1, 0, 0.0, &rng));
  ConstraintSet one;
  ASSERT_TRUE(one.AddCannotLink(0, 1).ok());
  EXPECT_EQ(ExtractClusters(single, one).status().ToString(),
            PathWalkExtractClusters(single, one, PathWalkConfig{})
                .status()
                .ToString());
}

}  // namespace
}  // namespace cvcp
