#include "cluster/fosc.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "common/strings.h"

namespace cvcp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// O(1) lowest common ancestor of two leaves, from a sparse table over
/// the split positions built in O(n log n).
///
/// Internal node v splits its span between positions s(v) - 1 and s(v),
/// s(v) = begin of its right child, and the n - 1 internal nodes own the
/// split positions 1..n-1 one each. For leaf positions pa < pb, LCA(pa,
/// pb) splits inside (pa, pb], and every other node splitting there lies
/// in its subtree, so the LCA is the shallowest of them. (OPTICSDend is
/// the Cartesian tree of the reachability plot, so that is also the
/// leftmost maximum height; depth needs no tie rule.)
class LeafLca {
 public:
  explicit LeafLca(const Dendrogram& dg)
      : width_(dg.num_objects() < 2 ? 0 : dg.num_objects() - 1) {
    const size_t n = dg.num_objects();
    // Level k, entry i: min over splits i+1 .. i+2^k of (depth << 32 | id).
    // Only one node of a range (its LCA) has the least depth, so the min
    // key names it.
    table_.resize(static_cast<size_t>(std::bit_width(width_)) * width_);
    std::vector<uint64_t> depth(width_);  // by internal id - n
    for (size_t id = n; id < dg.num_nodes(); ++id) {
      const DendrogramNode& nd = dg.node(static_cast<int>(id));
      const uint64_t d =
          nd.parent < 0 ? 0 : depth[static_cast<size_t>(nd.parent) - n] + 1;
      depth[id - n] = d;
      table_[dg.node(nd.right).begin - 1] = (d << 32) | id;
    }
    for (size_t k = 1, half = 1; 2 * half <= width_; ++k, half *= 2) {
      const uint64_t* prev = &table_[(k - 1) * width_];
      uint64_t* cur = &table_[k * width_];
      for (size_t i = 0; i + 2 * half <= width_; ++i) {
        cur[i] = std::min(prev[i], prev[i + half]);
      }
    }
  }

  /// Id of the smallest node covering both leaf positions pa < pb.
  size_t operator()(size_t pa, size_t pb) const {
    CVCP_DCHECK_LT(pa, pb);
    const size_t k = static_cast<size_t>(std::bit_width(pb - pa)) - 1;
    const uint64_t* level = &table_[k * width_];
    return static_cast<size_t>(
        std::min(level[pa], level[pb - (size_t{1} << k)]) & 0xFFFFFFFFu);
  }

 private:
  size_t width_;  ///< number of split positions, n - 1
  std::vector<uint64_t> table_;
};

}  // namespace

Result<FoscResult> ExtractClusters(const Dendrogram& dendrogram,
                                   const ConstraintSet& constraints) {
  const size_t n = dendrogram.num_objects();
  const size_t num_nodes = dendrogram.num_nodes();

  // Object id -> plot position (leaf node id).
  std::vector<size_t> pos_of(n, SIZE_MAX);
  for (size_t leaf = 0; leaf < n; ++leaf) {
    const size_t obj = dendrogram.LeafObject(static_cast<int>(leaf));
    if (obj >= n || pos_of[obj] != SIZE_MAX) {
      return Status::Internal("dendrogram leaf order is not a permutation");
    }
    pos_of[obj] = leaf;
  }

  // --- Constraint objective J per node, from marks and a subtree sum. ---
  // A node holds both endpoints of (a, b) iff its subtree holds
  // LCA(a, b), and exactly one iff it is on the path from an endpoint
  // leaf up to, not including, the LCA. So a must-link marks +1 at the
  // LCA; a cannot-link marks +1/2 at each endpoint leaf and -1 at the
  // LCA; J(v) is the sum of the marks in v's subtree. Every term is a
  // multiple of 1/2, so each sum is exact in double in any order.
  std::vector<double> j_value(num_nodes, 0.0);
  if (!constraints.empty()) {
    const LeafLca lca(dendrogram);
    for (const Constraint& c : constraints.all()) {
      if (c.a >= n || c.b >= n) {
        return Status::InvalidArgument(
            Format("constraint %s outside dendrogram of %zu objects",
                   ConstraintToString(c).c_str(), n));
      }
      const size_t pa = pos_of[c.a];
      const size_t pb = pos_of[c.b];
      const size_t top = lca(std::min(pa, pb), std::max(pa, pb));
      if (c.type == ConstraintType::kMustLink) {
        j_value[top] += 1.0;
      } else {
        j_value[pa] += 0.5;
        j_value[pb] += 0.5;
        j_value[top] -= 1.0;
      }
    }
    // Children before parents: internal children have larger ids.
    for (size_t id = num_nodes; id-- > n;) {
      const DendrogramNode& nd = dendrogram.node(static_cast<int>(id));
      j_value[id] += j_value[static_cast<size_t>(nd.left)] +
                     j_value[static_cast<size_t>(nd.right)];
    }
  }

  const double j_scale =
      constraints.empty() ? 1.0 : static_cast<double>(constraints.size());

  // Post-order DP. value[id] = best achievable in the subtree; selection
  // rule (incl. tie handling) is documented at the sweep below.
  std::vector<double> best(num_nodes, 0.0);
  std::vector<bool> take(num_nodes, false);

  // Bottom-up order: leaves (ids [0, n)) first — they have no children —
  // then internal nodes from high id to low. Internal nodes are created
  // pre-order, so every internal child has a larger id than its parent.
  std::vector<size_t> bottom_up;
  bottom_up.reserve(num_nodes);
  for (size_t id = 0; id < n; ++id) bottom_up.push_back(id);
  for (size_t id = num_nodes; id-- > n;) bottom_up.push_back(id);

  // Tie-break: a node with the same value as its children's best selection
  // wins if it carries actual evidence (own > 0). Objects that are not
  // constraint endpoints contribute nothing to J, so without this rule the
  // DP would select the *minimal* subtrees containing the endpoints and
  // leave the rest of every natural cluster as noise; with it, selection
  // climbs to the maximal subtree whose merge does not lose objective value
  // (i.e. up to the first merge that traps a cannot-link or crosses
  // evidence boundaries). Zero-evidence subtrees still stay noise.
  constexpr double kTieEps = 1e-9;
  for (size_t id : bottom_up) {
    const DendrogramNode& nd = dendrogram.node(static_cast<int>(id));
    const double children = nd.is_leaf()
                                ? 0.0
                                : best[static_cast<size_t>(nd.left)] +
                                      best[static_cast<size_t>(nd.right)];
    // Candidates: subtrees of at least two objects, excluding the root.
    const bool eligible =
        !nd.is_leaf() && static_cast<int>(id) != dendrogram.root();
    const double own = eligible ? j_value[id] / j_scale : -kInf;
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

  // Backtrack the selection from the root.
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

}  // namespace cvcp
