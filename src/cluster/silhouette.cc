#include "cluster/silhouette.h"

#include <cmath>
#include <limits>
#include <vector>

namespace cvcp {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

/// Object-to-group distance sums are precomputed in ONE pass over the
/// (i < j) pairs — each pairwise distance is evaluated once instead of
/// twice, and instead of rescanning every group per object the scoring
/// loop reads O(#groups) accumulated sums. The result is bitwise-identical
/// to the naive per-object rescan (pinned by silhouette_test.cc): for a
/// fixed object x and group g, the rescan added members in ascending-id
/// order skipping x, i.e. all o < x ascending, then all o > x ascending —
/// exactly the order the pair pass feeds sums[x][g] (contributions from
/// pairs (o, x), o ascending, then pairs (x, j), j ascending), and the
/// Euclidean kernel is argument-symmetric down to the bit.
double SilhouetteCoefficient(const DistanceMatrix& distances,
                             const Clustering& clustering) {
  CVCP_CHECK_EQ(distances.n(), clustering.size());
  const size_t n = distances.n();
  const std::vector<std::vector<size_t>> groups = clustering.Groups();
  const size_t n_groups = groups.size();
  if (n_groups < 2) return kNaN;

  // Compacted cluster index per object (-1 = noise).
  std::vector<int> group_of(n, -1);
  for (size_t g = 0; g < n_groups; ++g) {
    for (size_t o : groups[g]) group_of[o] = static_cast<int>(g);
  }

  // sums[i * n_groups + g] = sum of dist(i, o) over o in groups[g], o != i.
  // Noise objects contribute to no group and are never scored, so pairs
  // with a noise endpoint are skipped entirely (the rescan never touched
  // them either).
  std::vector<double> sums(n * n_groups, 0.0);
  for (size_t i = 0; i + 1 < n; ++i) {
    const int gi = group_of[i];
    if (gi < 0) continue;
    double* sums_i = &sums[i * n_groups];
    for (size_t j = i + 1; j < n; ++j) {
      const int gj = group_of[j];
      if (gj < 0) continue;
      const double d = distances(i, j);
      sums_i[gj] += d;
      sums[j * n_groups + static_cast<size_t>(gi)] += d;
    }
  }

  double total = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < n; ++i) {
    const int gi = group_of[i];
    if (gi < 0) continue;
    ++counted;
    if (groups[static_cast<size_t>(gi)].size() == 1) {
      continue;  // s(i) = 0 for singletons
    }
    // Mean distance to own cluster (a) and nearest other cluster (b).
    double a = 0.0;
    double b = std::numeric_limits<double>::infinity();
    for (size_t g = 0; g < n_groups; ++g) {
      const size_t cnt =
          groups[g].size() - (static_cast<int>(g) == gi ? 1 : 0);
      if (cnt == 0) continue;
      const double mean =
          sums[i * n_groups + g] / static_cast<double>(cnt);
      if (static_cast<int>(g) == gi) {
        a = mean;
      } else {
        b = std::min(b, mean);
      }
    }
    const double denom = std::max(a, b);
    if (denom > 0.0) total += (b - a) / denom;
  }
  if (counted == 0) return kNaN;
  return total / static_cast<double>(counted);
}

}  // namespace cvcp
