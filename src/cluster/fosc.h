#ifndef CVCP_CLUSTER_FOSC_H_
#define CVCP_CLUSTER_FOSC_H_

/// \file
/// FOSC — Framework for Optimal Selection of Clusters from hierarchies
/// (Campello, Moulavi, Zimek & Sander, DMKD 2013). Given a dendrogram,
/// selects the set of non-overlapping candidate clusters (subtrees) that
/// maximizes a per-cluster objective, by an exact bottom-up dynamic
/// program. Combined with the OPTICSDend hierarchy this is the
/// FOSC-OPTICSDend algorithm the paper evaluates CVCP with.
///
/// Semi-supervised objective (per candidate cluster C, half-credit per
/// constraint endpoint, which makes the objective additive over disjoint
/// selected clusters):
///   * must-link (a,b): +1/2 for each endpoint in C whose partner is
///     also in C (so a fully honored must-link earns 1.0);
///   * cannot-link (a,b): +1/2 for each endpoint in C whose partner is
///     *not* in C.
/// Objects covered by no selected cluster are noise; their endpoints earn
/// nothing (DESIGN.md §6). A node's value is its objective divided by the
/// number of constraints |C|. The candidates are every subtree of at least
/// two objects except the root (the all-inclusive "cluster").
///
/// Cost: O(n log n + |C|) per extraction for n objects and |C|
/// constraints. The constraint objective of every node comes from marks at
/// the constraint endpoints and their lowest common ancestor, which a
/// sparse table built per call answers in O(1), plus one bottom-up subtree
/// sum; it is a sum of halves and ones, so it is exact in double.

#include <vector>

#include "cluster/clustering.h"
#include "cluster/dendrogram.h"
#include "common/status.h"
#include "constraints/constraint_set.h"

namespace cvcp {

/// Output of a FOSC extraction.
struct FoscResult {
  Clustering clustering;
  /// Ids of the selected dendrogram nodes.
  std::vector<int> selected_nodes;
  /// Total objective achieved by the selection, divided by |C|.
  double objective = 0.0;
  /// Fraction of constraints satisfied by the selection under the
  /// half-credit semantics; NaN when no constraints were given.
  double constraint_satisfaction = 0.0;
};

/// Runs the FOSC dynamic program. Errors with kInvalidArgument if a
/// constraint references an object the dendrogram does not cover.
Result<FoscResult> ExtractClusters(const Dendrogram& dendrogram,
                                   const ConstraintSet& constraints);

}  // namespace cvcp

#endif  // CVCP_CLUSTER_FOSC_H_
