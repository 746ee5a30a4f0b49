#ifndef CVCP_CONSTRAINTS_TRANSITIVE_CLOSURE_H_
#define CVCP_CONSTRAINTS_TRANSITIVE_CLOSURE_H_

/// \file
/// Transitive closure of a mixed must-link/cannot-link constraint graph —
/// the mechanism behind the paper's Fig. 2 and the reason naive
/// cross-validation leaks test information into training folds:
///
///   ML(A,B) & ML(B,C)  =>  ML(A,C)
///   ML(A,B) & CL(B,C)  =>  CL(A,C)
///
/// i.e. must-links form equivalence classes (components) and every
/// cannot-link between two components induces cannot-links between all
/// cross pairs of those components.

#include <vector>

#include "common/status.h"
#include "constraints/constraint_set.h"

namespace cvcp {

/// Connected-component view of the must-link subgraph, with the induced
/// component-level cannot-link edges.
struct ConstraintComponents {
  /// Members of each must-link component (only objects involved in at
  /// least one constraint; singletons for objects appearing only in
  /// cannot-links). Deterministic order.
  std::vector<std::vector<size_t>> components;
  /// Component index of each involved object, keyed by object id via
  /// `object_component` lookups below.
  std::vector<size_t> involved_objects;          ///< sorted unique ids
  std::vector<size_t> component_of;              ///< parallel to involved_objects
  /// Component-level cannot-link edges (pairs of component indices, i < j,
  /// deduplicated).
  std::vector<std::pair<size_t, size_t>> cannot_edges;
};

/// Builds the component view. Errors with kInconsistentConstraints if a
/// cannot-link connects two objects of the same must-link component.
Result<ConstraintComponents> BuildConstraintComponents(
    const ConstraintSet& constraints);

/// Full transitive closure: expands every must-link component into all intra
/// pairs and every component-level cannot-link into all cross pairs.
/// The result contains the input as a subset. Errors if inconsistent.
Result<ConstraintSet> TransitiveClosure(const ConstraintSet& constraints);

}  // namespace cvcp

#endif  // CVCP_CONSTRAINTS_TRANSITIVE_CLOSURE_H_
