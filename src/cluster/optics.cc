#include "cluster/optics.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/strings.h"

namespace cvcp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Generic OPTICS over any "distance(i, j)" callable.
template <typename DistFn>
Result<OpticsResult> OpticsImpl(size_t n, const OpticsConfig& config,
                                DistFn&& dist) {
  CVCP_RETURN_IF_ERROR(ValidateMinPts(config.min_pts, n));

  OpticsResult result;
  result.order.reserve(n);
  result.reachability.reserve(n);
  result.core_distance.assign(n, kInf);

  const size_t min_pts = static_cast<size_t>(config.min_pts);
  std::vector<bool> processed(n, false);
  // reach[o]: current best-known reachability of unprocessed object o.
  std::vector<double> reach(n, kInf);

  // Core distance of `p` = distance to its min_pts-th neighbor
  // (the point itself counts as its first neighbor, as in the original
  // paper's eps-neighborhood semantics).
  auto core_distance_of = [&](size_t p) {
    std::vector<double> dists;
    dists.reserve(n);
    for (size_t o = 0; o < n; ++o) {
      if (o == p) continue;
      dists.push_back(dist(p, o));
    }
    if (min_pts == 1) return 0.0;
    std::nth_element(dists.begin(), dists.begin() + (min_pts - 2),
                     dists.end());
    return dists[min_pts - 2];
  };

  for (size_t start = 0; start < n; ++start) {
    if (processed[start]) continue;
    // Begin a new component: seed with `start` at infinite reachability.
    reach[start] = kInf;
    size_t current = start;
    bool first = true;
    while (true) {
      processed[current] = true;
      result.order.push_back(current);
      result.reachability.push_back(first ? kInf : reach[current]);
      first = false;

      const double core = core_distance_of(current);
      result.core_distance[current] = core;
      if (core != kInf) {
        for (size_t o = 0; o < n; ++o) {
          if (processed[o] || o == current) continue;
          const double d = dist(current, o);
          const double new_reach = std::max(core, d);
          if (new_reach < reach[o]) reach[o] = new_reach;
        }
      }

      // Pick the unprocessed point with smallest reachability (linear scan —
      // fine for n <= a few thousand). Stop the walk when nothing is
      // reachable (all remaining have infinite reachability): the outer loop
      // will open the next component.
      double best = kInf;
      size_t next = SIZE_MAX;
      for (size_t o = 0; o < n; ++o) {
        if (processed[o]) continue;
        if (reach[o] < best) {
          best = reach[o];
          next = o;
        }
      }
      if (next == SIZE_MAX) break;
      current = next;
    }
  }

  CVCP_CHECK_EQ(result.order.size(), n);
  return result;
}

}  // namespace

Status ValidateMinPts(int min_pts, size_t n) {
  if (min_pts < 1) {
    return Status::InvalidArgument(
        Format("min_pts must be >= 1, got %d", min_pts));
  }
  if (static_cast<size_t>(min_pts) > n) {
    return Status::InvalidArgument(
        Format("min_pts=%d exceeds number of points (%zu)", min_pts, n));
  }
  return Status::OK();
}

Result<OpticsResult> RunOptics(const Matrix& points,
                               const OpticsConfig& config) {
  return OpticsImpl(points.rows(), config, [&](size_t i, size_t j) {
    return EuclideanDistance(points.Row(i), points.Row(j));
  });
}

Result<OpticsResult> RunOptics(const DistanceMatrix& distances,
                               const OpticsConfig& config) {
  return OpticsImpl(distances.n(), config,
                    [&](size_t i, size_t j) { return distances(i, j); });
}

}  // namespace cvcp
