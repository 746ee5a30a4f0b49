#include "constraints/transitive_closure.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "common/union_find.h"

namespace cvcp {

Result<ConstraintComponents> BuildConstraintComponents(
    const ConstraintSet& constraints) {
  ConstraintComponents out;
  out.involved_objects = constraints.InvolvedObjects();
  const size_t m = out.involved_objects.size();

  // Dense reindexing of the involved objects.
  std::unordered_map<size_t, size_t> dense;
  dense.reserve(m);
  for (size_t i = 0; i < m; ++i) dense[out.involved_objects[i]] = i;

  UnionFind uf(m);
  for (const Constraint& c : constraints.all()) {
    if (c.type == ConstraintType::kMustLink) {
      uf.Union(dense[c.a], dense[c.b]);
    }
  }

  std::vector<size_t> comp_ids = uf.ComponentIds();
  out.component_of.resize(m);
  out.components.assign(uf.NumComponents(), {});
  for (size_t i = 0; i < m; ++i) {
    out.component_of[i] = comp_ids[i];
    out.components[comp_ids[i]].push_back(out.involved_objects[i]);
  }

  std::unordered_set<uint64_t> seen_edges;
  for (const Constraint& c : constraints.all()) {
    if (c.type != ConstraintType::kCannotLink) continue;
    size_t ca = comp_ids[dense[c.a]];
    size_t cb = comp_ids[dense[c.b]];
    if (ca == cb) {
      return Status::InconsistentConstraints(Format(
          "cannot-link (%zu,%zu) inside a must-link component", c.a, c.b));
    }
    if (ca > cb) std::swap(ca, cb);
    const uint64_t key = (static_cast<uint64_t>(ca) << 32) | cb;
    if (seen_edges.insert(key).second) {
      out.cannot_edges.emplace_back(ca, cb);
    }
  }
  return out;
}

Result<ConstraintSet> TransitiveClosure(const ConstraintSet& constraints) {
  CVCP_ASSIGN_OR_RETURN(ConstraintComponents comps,
                        BuildConstraintComponents(constraints));
  ConstraintSet closure;
  // All intra-component pairs become must-links.
  for (const auto& members : comps.components) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        CVCP_RETURN_IF_ERROR(closure.AddMustLink(members[i], members[j]));
      }
    }
  }
  // All cross pairs of cannot-linked components become cannot-links.
  for (const auto& [ca, cb] : comps.cannot_edges) {
    for (size_t a : comps.components[ca]) {
      for (size_t b : comps.components[cb]) {
        CVCP_RETURN_IF_ERROR(closure.AddCannotLink(a, b));
      }
    }
  }
  return closure;
}

}  // namespace cvcp
