#include "eval/external_measures.h"

#include <algorithm>
#include <limits>
#include <map>
#include <vector>

#include "common/check.h"

namespace cvcp {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Contingency table between ground-truth classes and clusters over the
/// surviving objects. Noise objects become fresh singleton clusters.
struct Contingency {
  std::vector<std::vector<size_t>> counts;  ///< class x cluster
  std::vector<size_t> class_sizes;
  std::vector<size_t> cluster_sizes;
  size_t n = 0;
};

Contingency BuildContingency(const std::vector<int>& labels,
                             const Clustering& clustering,
                             const std::vector<bool>* exclude) {
  CVCP_CHECK_EQ(labels.size(), clustering.size());
  if (exclude != nullptr) CVCP_CHECK_EQ(exclude->size(), labels.size());

  // Compact class and cluster ids over surviving objects.
  std::map<int, size_t> class_ids;
  std::map<int, size_t> cluster_ids;
  std::vector<std::pair<size_t, size_t>> assignments;  // (class, cluster)
  size_t next_singleton = 0;
  std::vector<std::pair<size_t, size_t>> pending;

  for (size_t i = 0; i < labels.size(); ++i) {
    if (exclude != nullptr && (*exclude)[i]) continue;
    auto [cit, cinserted] = class_ids.emplace(labels[i], class_ids.size());
    size_t cluster;
    if (clustering.IsNoise(i)) {
      // Unique pseudo-cluster per noise object; ids assigned after real
      // clusters, so stash and fix up below.
      cluster = SIZE_MAX - next_singleton;
      ++next_singleton;
    } else {
      auto [kit, kinserted] =
          cluster_ids.emplace(clustering.cluster_of(i), cluster_ids.size());
      cluster = kit->second;
    }
    assignments.emplace_back(cit->second, cluster);
  }

  Contingency table;
  table.n = assignments.size();
  const size_t num_classes = class_ids.size();
  const size_t num_clusters = cluster_ids.size() + next_singleton;
  table.counts.assign(num_classes, std::vector<size_t>(num_clusters, 0));
  table.class_sizes.assign(num_classes, 0);
  table.cluster_sizes.assign(num_clusters, 0);

  size_t singleton_cursor = cluster_ids.size();
  for (auto& [cls, cluster] : assignments) {
    size_t k = cluster;
    if (k > num_clusters) {  // stashed singleton marker
      k = singleton_cursor++;
    }
    table.counts[cls][k]++;
    table.class_sizes[cls]++;
    table.cluster_sizes[k]++;
  }
  return table;
}

}  // namespace

double OverallFMeasure(const std::vector<int>& labels,
                       const Clustering& clustering,
                       const std::vector<bool>* exclude) {
  const Contingency t = BuildContingency(labels, clustering, exclude);
  if (t.n == 0) return kNaN;

  double overall = 0.0;
  for (size_t c = 0; c < t.class_sizes.size(); ++c) {
    double best_f = 0.0;
    for (size_t k = 0; k < t.cluster_sizes.size(); ++k) {
      const double inter = static_cast<double>(t.counts[c][k]);
      if (inter == 0.0) continue;
      const double precision = inter / static_cast<double>(t.cluster_sizes[k]);
      const double recall = inter / static_cast<double>(t.class_sizes[c]);
      const double f = 2.0 * precision * recall / (precision + recall);
      best_f = std::max(best_f, f);
    }
    overall += best_f * static_cast<double>(t.class_sizes[c]) /
               static_cast<double>(t.n);
  }
  return overall;
}

double AdjustedRandIndex(const std::vector<int>& labels,
                         const Clustering& clustering,
                         const std::vector<bool>* exclude) {
  const Contingency t = BuildContingency(labels, clustering, exclude);
  if (t.n < 2) return kNaN;
  auto choose2 = [](size_t x) {
    return static_cast<double>(x) * static_cast<double>(x - 1) / 2.0;
  };
  double sum_ij = 0.0;
  for (const auto& row : t.counts) {
    for (size_t v : row) {
      if (v >= 2) sum_ij += choose2(v);
    }
  }
  double sum_a = 0.0;
  for (size_t v : t.class_sizes) {
    if (v >= 2) sum_a += choose2(v);
  }
  double sum_b = 0.0;
  for (size_t v : t.cluster_sizes) {
    if (v >= 2) sum_b += choose2(v);
  }
  const double total = choose2(t.n);
  const double expected = sum_a * sum_b / total;
  const double max_index = 0.5 * (sum_a + sum_b);
  if (max_index == expected) return kNaN;  // degenerate (single class/cluster)
  return (sum_ij - expected) / (max_index - expected);
}

}  // namespace cvcp
