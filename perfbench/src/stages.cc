#include "stages.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "cluster/dendrogram.h"
#include "cluster/mpckmeans.h"
#include "cluster/optics.h"
#include "cluster/silhouette.h"
#include "common/distance.h"
#include "core/cross_validation.h"
#include "core/fmeasure.h"

namespace perfbench {

using namespace cvcp;  // NOLINT

namespace {

// Every per-layer metric the benchmark reports, with its unit. Must agree
// with BENCHMARK.json's per_layer list (perfbench/run.py checks it).
const std::map<std::string, std::string>& LayerUnits() {
  static const auto* units = new std::map<std::string, std::string>{
      {"fosc.extract_ms", "ms/op"},
      {"fosc.extract_calls", "count"},
      {"fosc.constraints_per_call", "count"},
      {"supervision.derive_ms", "ms/op"},
      {"folds.build_ms", "ms/op"},
      {"fmeasure.ms", "ms/op"},
      {"mpckmeans.ms", "ms/op"},
      {"mpckmeans.calls", "count"},
      {"mpckmeans.iterations", "count"},
      {"mpckmeans.us_per_iteration", "us"},
      {"silhouette.ms", "ms/op"},
      {"optics.ms_per_build", "ms"},
      {"dendrogram.ms_per_build", "ms"},
      {"distance.ms_per_build", "ms"},
      {"dataset_cache.model_lookup_ms", "ms/op"},
      {"dataset_cache.model_builds", "count"},
      {"dataset_cache.model_hits", "count"},
      {"dataset_cache.model_loads", "count"},
      {"dataset_cache.distance_builds", "count"},
      {"dataset_cache.model_build_useful_ratio", "ratio"},
      {"dataset_cache.distance_build_useful_ratio", "ratio"},
      {"artifact_store.disk_misses", "count"},
      {"artifact_store.disk_hits", "count"},
      {"parallel.cpu_util", "ratio"},
      {"server.submit_ms_p50", "ms"},
      {"server.queue_wait_ms_p50", "ms"},
      {"server.queue_wait_ms_p99", "ms"},
      {"server.exec_ms_p50", "ms"},
      {"server.exec_ms_p99", "ms"},
      {"server.rejected", "count"},
      {"result_store.put_ms_p50", "ms"},
      {"job.run_ms_p50", "ms"},
      {"trace.unattributed_share", "ratio"},
      {"trace.overhead_ops_per_s", "op/s"},
  };
  return *units;
}

double LayerSelfMs(const std::map<std::string, double>& layers,
                   const char* name) {
  auto it = layers.find(name);
  return it == layers.end() ? 0.0 : it->second;
}

}  // namespace

void TracedFosc::PrewarmCache(const Dataset& data, std::span<const int> grid,
                              DatasetCache* cache,
                              const ExecutionContext& exec) const {
  ScopedSpan span("dataset_cache.prewarm");
  inner_.PrewarmCache(data, grid, cache, exec);
}

Result<Clustering> TracedFosc::DoCluster(const Dataset& data,
                                         const Supervision& supervision,
                                         int param, Rng* rng,
                                         const ClusterContext& context) const {
  if (context.cache == nullptr) {
    return Status::FailedPrecondition("traced FOSC needs a dataset cache");
  }
  (void)data;
  (void)rng;  // the pipeline is deterministic
  std::shared_ptr<const FoscOpticsModel> model;
  {
    ScopedSpan span("dataset_cache.model_lookup");
    CVCP_ASSIGN_OR_RETURN(
        model, context.cache->FoscModel(inner_.metric(), param, context.exec));
  }
  ScopedSpan span("fosc.extract");
  counters_->extract_calls.fetch_add(1, std::memory_order_relaxed);
  counters_->extract_constraints.fetch_add(supervision.constraints().size(),
                                           std::memory_order_relaxed);
  return inner_.ExtractWithSupervision(*model, supervision);
}

Result<Clustering> TracedMpck::DoCluster(const Dataset& data,
                                         const Supervision& supervision,
                                         int param, Rng* rng,
                                         const ClusterContext& context) const {
  MpckMeansConfig config = base_;
  config.k = param;
  config.kernel = context.exec.distance_kernel;
  ScopedSpan span("mpckmeans");
  CVCP_ASSIGN_OR_RETURN(
      MpckMeansResult result,
      RunMpckMeans(data.points(), supervision.constraints(), config, rng));
  counters_->mpck_calls.fetch_add(1, std::memory_order_relaxed);
  counters_->mpck_iterations.fetch_add(static_cast<uint64_t>(result.iterations),
                                       std::memory_order_relaxed);
  return std::move(result.clustering);
}

Status ReplayHiddenStages(const Dataset& data, const Supervision& supervision,
                          const SemiSupervisedClusterer& clusterer,
                          const std::vector<int>& grid, int n_folds,
                          bool with_silhouette, DatasetCache* cache,
                          uint64_t seed, HiddenStageTimes* out) {
  CvConfig config;
  config.n_folds = n_folds;
  config.exec = ExecutionContext::Serial();
  const ClusterContext context{cache, ExecutionContext::Serial()};
  Rng rng(seed);

  double start = NowMs();
  CVCP_ASSIGN_OR_RETURN(std::vector<FoldSplit> folds,
                        MakeSupervisionFolds(data, supervision, config, &rng));
  out->folds_ms += NowMs() - start;

  for (int param : grid) {
    for (const FoldSplit& fold : folds) {
      start = NowMs();
      const Supervision train =
          supervision.kind() == SupervisionKind::kLabels
              ? Supervision::FromLabelArray(fold.train_labels)
              : Supervision::FromConstraints(fold.train_constraints);
      out->derive_ms += NowMs() - start;
      Rng cell_rng = rng.Fork(static_cast<uint64_t>(param));
      CVCP_ASSIGN_OR_RETURN(
          Clustering clustering,
          clusterer.Cluster(data, train, param, &cell_rng, context));
      start = NowMs();
      EvaluateConstraintClassification(clustering, fold.test_constraints);
      out->fmeasure_ms += NowMs() - start;
    }
  }

  if (with_silhouette && cache != nullptr) {
    const std::shared_ptr<const DistanceMatrix> distances =
        cache->Distances(cvcp::Metric::kEuclidean, ExecutionContext::Serial());
    for (int param : grid) {
      Rng run_rng = rng.Fork(0x5117ULL + static_cast<uint64_t>(param));
      CVCP_ASSIGN_OR_RETURN(
          Clustering clustering,
          clusterer.Cluster(data, supervision, param, &run_rng, context));
      start = NowMs();
      SilhouetteCoefficient(*distances, clustering);
      out->silhouette_ms += NowMs() - start;
    }
  }
  ++out->runs;
  return Status::OK();
}

void TimeGeometry(const Matrix& points, std::span<const int> min_pts_grid,
                  GeometryTimes* out) {
  double start = NowMs();
  const DistanceMatrix distances = DistanceMatrix::Compute(
      points, cvcp::Metric::kEuclidean, ExecutionContext::Serial());
  out->distance_ms += NowMs() - start;
  ++out->distance_builds;
  for (int min_pts : min_pts_grid) {
    OpticsConfig config;
    config.min_pts = min_pts;
    config.metric = cvcp::Metric::kEuclidean;
    start = NowMs();
    Result<OpticsResult> optics = RunOptics(distances, config);
    out->optics_ms += NowMs() - start;
    if (!optics.ok()) continue;
    start = NowMs();
    Dendrogram::FromReachability(*optics);
    out->dendrogram_ms += NowMs() - start;
    ++out->model_builds;
  }
}

void SetEngineLayerMetrics(const EngineTrace& trace,
                           const EngineCounters& counters,
                           const HiddenStageTimes& hidden,
                           const GeometryTimes& geometry, Metrics* out) {
  const std::map<std::string, double> layers = SelfTimes(trace.spans);
  const double ops = trace.ops > 0 ? static_cast<double>(trace.ops) : 1.0;
  const uint64_t extract_calls = counters.extract_calls.load();
  const uint64_t mpck_calls = counters.mpck_calls.load();
  const uint64_t iterations = counters.mpck_iterations.load();
  const double extract_ms = LayerSelfMs(layers, "fosc.extract");
  const double mpck_ms = LayerSelfMs(layers, "mpckmeans");
  const double lookup_ms = LayerSelfMs(layers, "dataset_cache.model_lookup");

  SetLayer(out, "fosc.extract_ms", extract_ms / ops, extract_calls);
  SetLayer(out, "fosc.extract_calls", static_cast<double>(extract_calls));
  SetLayer(out, "fosc.constraints_per_call",
           extract_calls > 0
               ? static_cast<double>(counters.extract_constraints.load()) /
                     static_cast<double>(extract_calls)
               : 0.0,
           extract_calls);
  SetLayer(out, "mpckmeans.ms", mpck_ms / ops, mpck_calls);
  SetLayer(out, "mpckmeans.calls", static_cast<double>(mpck_calls));
  SetLayer(out, "mpckmeans.iterations", static_cast<double>(iterations));
  SetLayer(out, "mpckmeans.us_per_iteration",
           iterations > 0 ? mpck_ms * 1e3 / static_cast<double>(iterations)
                          : 0.0,
           iterations);
  SetLayer(out, "dataset_cache.model_lookup_ms", lookup_ms / ops,
           extract_calls);

  // Hidden stages: per replayed run, which is one op of the engine.
  const double runs = hidden.runs > 0 ? static_cast<double>(hidden.runs) : 1.0;
  const double hidden_per_op = (hidden.folds_ms + hidden.derive_ms +
                                hidden.fmeasure_ms + hidden.silhouette_ms) /
                               runs;
  SetLayer(out, "folds.build_ms", hidden.folds_ms / runs, hidden.runs);
  SetLayer(out, "supervision.derive_ms", hidden.derive_ms / runs, hidden.runs);
  SetLayer(out, "fmeasure.ms", hidden.fmeasure_ms / runs, hidden.runs);
  SetLayer(out, "silhouette.ms", hidden.silhouette_ms / runs, hidden.runs);

  auto per = [](double total, uint64_t count) {
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  };
  SetLayer(out, "distance.ms_per_build",
           per(geometry.distance_ms, geometry.distance_builds),
           geometry.distance_builds);
  SetLayer(out, "optics.ms_per_build",
           per(geometry.optics_ms, geometry.model_builds),
           geometry.model_builds);
  SetLayer(out, "dendrogram.ms_per_build",
           per(geometry.dendrogram_ms, geometry.model_builds),
           geometry.model_builds);

  // Busy thread time no named layer covers: the op root spans are not
  // layers; the hidden stages are attributed at their replayed per-op cost.
  double attributed = hidden_per_op * static_cast<double>(trace.ops);
  for (const auto& [name, self_ms] : layers) {
    if (name.rfind("op.", 0) != 0) attributed += self_ms;
  }
  const double unattributed =
      trace.busy_ms > 0.0 ? 1.0 - attributed / trace.busy_ms : 0.0;
  SetLayer(out, "trace.unattributed_share", unattributed < 0.0 ? 0.0 : unattributed);
}

void SetLayer(Metrics* out, const std::string& name, double value,
              uint64_t samples) {
  auto it = LayerUnits().find(name);
  if (it == LayerUnits().end()) {
    std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n",
                 name.c_str());
    std::abort();
  }
  (*out)[name] = Metric{value, it->second, samples};
}

void FillUnsetLayers(Metrics* out) {
  for (const auto& [name, unit] : LayerUnits()) {
    if (out->count(name) == 0) (*out)[name] = Metric{0.0, unit, 0};
  }
}

double UsefulRatio(uint64_t distinct, uint64_t builds) {
  return builds > 0 ? static_cast<double>(distinct) /
                          static_cast<double>(builds)
                    : 1.0;
}

}  // namespace perfbench
