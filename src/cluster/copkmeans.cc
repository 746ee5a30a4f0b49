#include "cluster/copkmeans.h"

#include <cmath>
#include <limits>
#include <unordered_map>

#include "cluster/kmeans.h"
#include "common/distance.h"
#include "common/strings.h"
#include "constraints/transitive_closure.h"

namespace cvcp {

namespace {

/// Groups objects into must-link components over the full dataset;
/// unconstrained objects are singletons. Also produces, per component, the
/// set of cannot-linked components.
struct ComponentView {
  std::vector<size_t> comp_of;                     // object -> component
  std::vector<std::vector<size_t>> members;        // component -> objects
  std::vector<std::vector<size_t>> cannot_comps;   // component -> components
};

Result<ComponentView> BuildView(const ConstraintSet& constraints, size_t n) {
  CVCP_ASSIGN_OR_RETURN(ConstraintComponents comps,
                        BuildConstraintComponents(constraints));
  ComponentView view;
  view.comp_of.resize(n, SIZE_MAX);
  // Components over involved objects keep their index; unconstrained objects
  // get fresh singleton components after them.
  view.members = comps.components;
  for (size_t i = 0; i < comps.involved_objects.size(); ++i) {
    view.comp_of[comps.involved_objects[i]] = comps.component_of[i];
  }
  for (size_t o = 0; o < n; ++o) {
    if (view.comp_of[o] == SIZE_MAX) {
      view.comp_of[o] = view.members.size();
      view.members.push_back({o});
    }
  }
  view.cannot_comps.resize(view.members.size());
  for (const auto& [ca, cb] : comps.cannot_edges) {
    view.cannot_comps[ca].push_back(cb);
    view.cannot_comps[cb].push_back(ca);
  }
  return view;
}

}  // namespace

Result<CopKMeansResult> RunCopKMeans(const Matrix& points,
                                     const ConstraintSet& constraints,
                                     const CopKMeansConfig& config, Rng* rng) {
  const size_t n = points.rows();
  if (config.k < 1) {
    return Status::InvalidArgument(Format("k must be >= 1, got %d", config.k));
  }
  if (static_cast<size_t>(config.k) > n) {
    return Status::InvalidArgument(
        Format("k=%d exceeds number of points (%zu)", config.k, n));
  }
  for (const Constraint& c : constraints.all()) {
    if (c.a >= n || c.b >= n) {
      return Status::InvalidArgument(
          Format("constraint %s references object beyond dataset size %zu",
                 ConstraintToString(c).c_str(), n));
    }
  }
  CVCP_ASSIGN_OR_RETURN(ComponentView view, BuildView(constraints, n));
  const size_t k = static_cast<size_t>(config.k);

  for (int restart = 0; restart < config.max_restarts; ++restart) {
    Matrix centroids = KMeansPlusPlusInit(points, config.k, rng);
    std::vector<int> comp_assign(view.members.size(), -1);
    double inertia = std::numeric_limits<double>::infinity();
    double prev_inertia = inertia;
    bool feasible = true;
    int iter = 0;
    bool converged = false;

    for (iter = 0; iter < config.max_iters && feasible; ++iter) {
      // Assign whole components in random order; a component may only take
      // a cluster not used by any cannot-linked component this pass.
      std::fill(comp_assign.begin(), comp_assign.end(), -1);
      std::vector<size_t> order = rng->Permutation(view.members.size());
      inertia = 0.0;
      for (size_t ci : order) {
        const auto& members = view.members[ci];
        std::vector<bool> banned(k, false);
        for (size_t cj : view.cannot_comps[ci]) {
          if (comp_assign[cj] >= 0) banned[static_cast<size_t>(comp_assign[cj])] = true;
        }
        double best = std::numeric_limits<double>::infinity();
        int best_h = -1;
        for (size_t h = 0; h < k; ++h) {
          if (banned[h]) continue;
          double cost = 0.0;
          for (size_t o : members) {
            cost += SquaredEuclideanDistance(points.Row(o), centroids.Row(h));
          }
          if (cost < best) {
            best = cost;
            best_h = static_cast<int>(h);
          }
        }
        if (best_h < 0) {
          feasible = false;  // dead end: every cluster banned
          break;
        }
        comp_assign[ci] = best_h;
        inertia += best;
      }
      if (!feasible) break;

      // Update centroids from component assignments.
      Matrix sums(k, points.cols(), 0.0);
      std::vector<size_t> counts(k, 0);
      for (size_t ci = 0; ci < view.members.size(); ++ci) {
        const size_t h = static_cast<size_t>(comp_assign[ci]);
        for (size_t o : view.members[ci]) {
          auto row = points.Row(o);
          auto acc = sums.MutableRow(h);
          for (size_t m = 0; m < row.size(); ++m) acc[m] += row[m];
          ++counts[h];
        }
      }
      for (size_t h = 0; h < k; ++h) {
        if (counts[h] == 0) {
          centroids.SetRow(h, points.Row(rng->Index(n)));
          continue;
        }
        auto acc = sums.MutableRow(h);
        for (size_t m = 0; m < acc.size(); ++m) {
          acc[m] /= static_cast<double>(counts[h]);
        }
        centroids.SetRow(h, sums.Row(h));
      }

      if (std::isfinite(prev_inertia) &&
          prev_inertia - inertia <=
              config.tol * std::max(prev_inertia, 1e-12)) {
        converged = true;
        ++iter;
        break;
      }
      prev_inertia = inertia;
    }

    if (feasible && (converged || iter == config.max_iters)) {
      std::vector<int> assignment(n);
      for (size_t o = 0; o < n; ++o) {
        assignment[o] = comp_assign[view.comp_of[o]];
      }
      CopKMeansResult result;
      result.clustering = Clustering(std::move(assignment));
      result.centroids = std::move(centroids);
      result.inertia = inertia;
      result.iterations = iter;
      result.restarts_used = restart;
      return result;
    }
  }
  return Status::Infeasible(
      Format("no constraint-respecting assignment found in %d restarts",
             config.max_restarts));
}

}  // namespace cvcp
