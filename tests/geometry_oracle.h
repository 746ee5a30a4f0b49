#ifndef CVCP_TESTS_GEOMETRY_ORACLE_H_
#define CVCP_TESTS_GEOMETRY_ORACLE_H_

// Cache-less differential oracles for the engine's geometry. DatasetCache
// is the engine's only source of distances and OPTICS models; these
// recompute everything from the points on every call, so the determinism
// suites can pin cached results (shared or private, cold or warm, any
// thread width) against them bit for bit.

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cluster/dendrogram.h"
#include "cluster/optics.h"
#include "common/distance.h"
#include "core/clusterer.h"
#include "core/dataset_cache.h"

namespace cvcp {

/// FOSC-OPTICSDend without a cache: every call runs OPTICS on the points
/// (on-the-fly distances), builds the OPTICSDend dendrogram, and extracts
/// under the supervision. Ignores `context`.
class UncachedFoscClusterer : public SemiSupervisedClusterer {
 public:
  std::string name() const override { return inner_.name(); }
  std::string param_name() const override { return inner_.param_name(); }

 protected:
  Result<Clustering> DoCluster(const Dataset& data,
                               const Supervision& supervision, int param,
                               Rng* rng,
                               const ClusterContext& /*context*/) const override {
    (void)rng;  // the pipeline is deterministic
    OpticsConfig config;
    config.min_pts = param;
    CVCP_ASSIGN_OR_RETURN(OpticsResult optics,
                          RunOptics(data.points(), config));
    FoscOpticsModel model;
    model.optics = std::move(optics);
    model.dendrogram = Dendrogram::FromReachability(model.optics);
    return inner_.ExtractWithSupervision(model, supervision);
  }

 private:
  FoscOpticsDendClusterer inner_;
};

/// Naive per-object rescan silhouette with on-the-fly distances — the
/// pre-optimization implementation, kept verbatim as the bitwise reference
/// for the group-sum single pass over the cached distance matrix
/// (cluster/silhouette.cc).
inline double ReferenceSilhouette(const Matrix& points,
                                  const Clustering& clustering) {
  const size_t n = points.rows();
  const std::vector<std::vector<size_t>> groups = clustering.Groups();
  if (groups.size() < 2) return std::numeric_limits<double>::quiet_NaN();
  std::vector<int> group_of(n, -1);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t o : groups[g]) group_of[o] = static_cast<int>(g);
  }
  double total = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < n; ++i) {
    const int gi = group_of[i];
    if (gi < 0) continue;
    ++counted;
    if (groups[static_cast<size_t>(gi)].size() == 1) continue;
    double a = 0.0;
    double b = std::numeric_limits<double>::infinity();
    for (size_t g = 0; g < groups.size(); ++g) {
      double sum = 0.0;
      size_t cnt = 0;
      for (size_t o : groups[g]) {
        if (o == i) continue;
        sum += EuclideanDistance(points.Row(i), points.Row(o));
        ++cnt;
      }
      if (cnt == 0) continue;
      const double mean = sum / static_cast<double>(cnt);
      if (static_cast<int>(g) == gi) {
        a = mean;
      } else {
        b = std::min(b, mean);
      }
    }
    const double denom = std::max(a, b);
    if (denom > 0.0) total += (b - a) / denom;
  }
  if (counted == 0) return std::numeric_limits<double>::quiet_NaN();
  return total / static_cast<double>(counted);
}

}  // namespace cvcp

#endif  // CVCP_TESTS_GEOMETRY_ORACLE_H_
