#ifndef PERFBENCH_STAGES_H_
#define PERFBENCH_STAGES_H_

// Per-layer measurement from outside the library:
//   * traced clusterers whose DoCluster calls the wrapped algorithm's public
//     stages with a span around each, so RunAloiExperiment, RunCvcp and
//     RunJob run unchanged on top of them;
//   * direct calls that time the stages hidden inside the engine (folds,
//     fold supervision, F-measure, silhouette, distance/OPTICS/dendrogram
//     builds) on the workload's own inputs;
//   * the per-layer metric table every traced run reports in full.

#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/clusterer.h"
#include "core/dataset_cache.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

/// Counts the traced clusterers accumulate at their layer boundaries.
struct EngineCounters {
  std::atomic<uint64_t> extract_calls{0};
  std::atomic<uint64_t> extract_constraints{0};
  std::atomic<uint64_t> mpck_calls{0};
  std::atomic<uint64_t> mpck_iterations{0};
};

/// FOSC-OPTICSDend through its public stages: DatasetCache::FoscModel,
/// then ExtractWithSupervision. Needs a cache (every workload has one).
class TracedFosc final : public cvcp::SemiSupervisedClusterer {
 public:
  TracedFosc(const cvcp::FoscOpticsDendClusterer& inner,
             EngineCounters* counters)
      : inner_(inner), counters_(counters) {}

  std::string name() const override { return inner_.name(); }
  std::string param_name() const override { return inner_.param_name(); }
  void PrewarmCache(const cvcp::Dataset& data, std::span<const int> grid,
                    cvcp::DatasetCache* cache,
                    const cvcp::ExecutionContext& exec) const override;

 protected:
  cvcp::Result<cvcp::Clustering> DoCluster(
      const cvcp::Dataset& data, const cvcp::Supervision& supervision,
      int param, cvcp::Rng* rng,
      const cvcp::ClusterContext& context) const override;

 private:
  const cvcp::FoscOpticsDendClusterer& inner_;
  EngineCounters* counters_;
};

/// MPCKMeans through RunMpckMeans with the configuration the untraced
/// MpckMeansClusterer was built with.
class TracedMpck final : public cvcp::SemiSupervisedClusterer {
 public:
  TracedMpck(cvcp::MpckMeansConfig base, EngineCounters* counters)
      : base_(base), counters_(counters) {}

  std::string name() const override { return "MPCKMeans"; }
  std::string param_name() const override { return "k"; }
  bool IsCentroidBased() const override { return true; }

 protected:
  cvcp::Result<cvcp::Clustering> DoCluster(
      const cvcp::Dataset& data, const cvcp::Supervision& supervision,
      int param, cvcp::Rng* rng,
      const cvcp::ClusterContext& context) const override;

 private:
  cvcp::MpckMeansConfig base_;
  EngineCounters* counters_;
};

/// Totals of the engine-hidden stages over `runs` replayed CVCP runs.
struct HiddenStageTimes {
  double folds_ms = 0.0;
  double derive_ms = 0.0;
  double fmeasure_ms = 0.0;
  double silhouette_ms = 0.0;
  uint64_t runs = 0;
};

/// Replays the stages of one CVCP run that the engine keeps internal, in
/// the engine's own call pattern: MakeSupervisionFolds once, then per
/// (grid value, fold) cell the training-supervision derivation and the
/// constraint F-measure, then (with_silhouette) the silhouette of each
/// full-supervision clustering. The clusterings come from `clusterer` and
/// are not timed.
cvcp::Status ReplayHiddenStages(const cvcp::Dataset& data,
                                const cvcp::Supervision& supervision,
                                const cvcp::SemiSupervisedClusterer& clusterer,
                                const std::vector<int>& grid, int n_folds,
                                bool with_silhouette,
                                cvcp::DatasetCache* cache, uint64_t seed,
                                HiddenStageTimes* out);

/// Serial build times of the supervision-independent geometry.
struct GeometryTimes {
  double distance_ms = 0.0;
  uint64_t distance_builds = 0;
  double optics_ms = 0.0;
  double dendrogram_ms = 0.0;
  uint64_t model_builds = 0;
};

/// Times DistanceMatrix::Compute on `points`, then RunOptics and
/// Dendrogram::FromReachability for each MinPts in `min_pts_grid`.
void TimeGeometry(const cvcp::Matrix& points,
                  std::span<const int> min_pts_grid, GeometryTimes* out);

/// What a traced pass through the traced clusterers measured.
struct EngineTrace {
  std::vector<Span> spans;
  uint64_t ops = 0;
  double busy_ms = 0.0;  ///< process CPU time over the pass
};

/// Sets the per-layer metrics that come from a traced engine pass, the
/// hidden-stage replay and the geometry timings, plus the unattributed
/// share of busy thread time.
void SetEngineLayerMetrics(const EngineTrace& trace,
                           const EngineCounters& counters,
                           const HiddenStageTimes& hidden,
                           const GeometryTimes& geometry, Metrics* out);

/// Sets one per-layer metric; its unit comes from the per-layer table.
void SetLayer(Metrics* out, const std::string& name, double value,
              uint64_t samples = 0);

/// Adds every per-layer metric the run did not set, as 0: a layer the
/// workload does not exercise reads 0 ("flat").
void FillUnsetLayers(Metrics* out);

/// distinct / builds, or 1 when nothing was built (no wasted builds).
double UsefulRatio(uint64_t distinct, uint64_t builds);

}  // namespace perfbench

#endif  // PERFBENCH_STAGES_H_
