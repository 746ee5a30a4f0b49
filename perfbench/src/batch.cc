// fosc-labels and mpck-labels: the paper's Figure 9 and Figure 10
// protocols (label scenario at 5/10/20 %, 5 folds) over one ALOI-k5-like
// collection that shares a DatasetCachePool with no disk tier.
//
// The unit of issue is a *call*: one RunAloiExperiment over the whole
// collection at one supervision level, cycling 5 -> 10 -> 20 %, each call
// with its own seed. A call is the batch analogue of a served job (its wall
// time is the job latency); each of its trials is one op.

#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/strings.h"
#include "constraints/oracle.h"
#include "core/dataset_cache.h"
#include "data/paper_suites.h"
#include "harness/experiment.h"
#include "stages.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace cvcp;  // NOLINT

namespace {

constexpr double kLevels[] = {0.05, 0.10, 0.20};
constexpr size_t kLevelCount = 3;
constexpr int kFolds = 5;
// The process's first second runs several times slower (heap growth and
// first-touch page faults, paid once per process); calls in this span are
// checked but not measured.
constexpr double kWarmupMs = 2000.0;
constexpr size_t kPoolBytes = size_t{256} << 20;

constexpr size_t kSets = 20;  ///< ALOI-k5-like collection members

// Per-workload sizes: FOSC trials are ~15x cheaper than MPCK trials, so a
// FOSC call runs more trials per member and the traced pass more calls.
struct BatchConfig {
  bool fosc = true;
  int trials_per_call = 1;  ///< trials per collection member per call
  size_t traced_calls = 3;  ///< calls replayed by the traced pass
  size_t hidden_sets = 5;   ///< members whose hidden stages are replayed
};

BatchConfig ConfigFor(const std::string& workload) {
  if (workload == "fosc-labels") return {true, 5, 9, kSets};
  return {false, 1, 6, 5};
}

struct Inputs {
  std::vector<Dataset> collection;
  std::unique_ptr<DatasetCachePool> pool;
};

Inputs Setup(uint64_t seed) {
  Inputs inputs;
  inputs.collection =
      MakeAloiK5Collection(Rng(seed).Fork(1).seed(), kSets);
  inputs.pool = std::make_unique<DatasetCachePool>(kPoolBytes);
  return inputs;
}

std::vector<int> Grid(const BatchConfig& config) {
  return config.fosc ? DefaultMinPtsGrid() : MakeKGrid(5);
}

struct CallOutcome {
  double ms = 0.0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t digest = 0;
};

/// Digest of the IEEE-754 bit patterns of every per-trial series.
uint64_t Digest(const bench::AloiAggregate& agg) {
  uint64_t h = Hash64("perfbench-batch");
  for (const bench::CellAggregate& cell : agg.per_dataset) {
    h = Hash64(&cell.trials_ok, sizeof(cell.trials_ok), h);
    for (const std::vector<double>* series :
         {&cell.cvcp_values, &cell.exp_values, &cell.sil_values,
          &cell.correlations}) {
      const uint64_t size = series->size();
      h = Hash64(&size, sizeof(size), h);
      h = Hash64(series->data(), series->size() * sizeof(double), h);
    }
  }
  return h;
}

/// A quality score outside [0, 1] (silhouettes: [-1, 1]) is a wrong output,
/// not a slow one. The tolerance admits a mean of ones rounding past 1.
bool ScoresInRange(const bench::CellAggregate& cell) {
  constexpr double kSlack = 1e-9;
  for (const std::vector<double>* series :
       {&cell.cvcp_values, &cell.exp_values, &cell.sil_values}) {
    for (double v : *series) {
      if (v < -1.0 - kSlack || v > 1.0 + kSlack) return false;
    }
  }
  return true;
}

CallOutcome RunCall(const BatchConfig& config, const Inputs& inputs,
                    DatasetCachePool* pool,
                    const SemiSupervisedClusterer& clusterer, size_t call,
                    uint64_t seed, int threads) {
  bench::TrialSpec spec;
  spec.scenario = bench::Scenario::kLabels;
  spec.level = kLevels[call % kLevelCount];
  spec.n_folds = kFolds;
  spec.grid = Grid(config);
  spec.with_silhouette = !config.fosc;
  spec.exec.threads = threads;
  spec.cache_pool = pool;
  const uint64_t call_seed = Rng(seed).Fork(2).Fork(call).seed();

  CallOutcome out;
  const double start = NowMs();
  const bench::AloiAggregate agg = bench::RunAloiExperiment(
      inputs.collection, clusterer, spec, config.trials_per_call, call_seed);
  out.ms = NowMs() - start;
  out.ops = kSets * static_cast<uint64_t>(config.trials_per_call);
  uint64_t ok = 0;
  for (const bench::CellAggregate& cell : agg.per_dataset) {
    if (ScoresInRange(cell)) ok += static_cast<uint64_t>(cell.trials_ok);
  }
  out.failed = out.ops - std::min(ok, out.ops);
  out.digest = Digest(agg);
  return out;
}

}  // namespace

RunResult RunBatchWorkload(const WorkloadOptions& options) {
  const BatchConfig config = ConfigFor(options.workload);
  const std::vector<int> grid = Grid(config);
  RunResult result;

  // Set-up: generate the collection and create the cache pool.
  Inputs inputs;
  const std::vector<double> setup_ms = TimeSetups([&] {
    const double start = NowMs();
    inputs = Setup(options.seed);
    return NowMs() - start;
  });

  const FoscOpticsDendClusterer fosc;
  const MpckMeansConfig mpck_config;
  const MpckMeansClusterer mpck(mpck_config);
  const SemiSupervisedClusterer& clusterer =
      config.fosc ? static_cast<const SemiSupervisedClusterer&>(fosc) : mpck;

  // Warm-up, then the untraced window. Call indices run on from the
  // warm-up, which always covers the calls of the reference digest.
  std::vector<CallOutcome> calls;
  const double warmup_start = NowMs();
  while (calls.size() < kLevelCount || NowMs() - warmup_start < kWarmupMs) {
    calls.push_back(RunCall(config, inputs, inputs.pool.get(), clusterer,
                            calls.size(), options.seed, options.threads));
  }
  const size_t first_measured = calls.size();
  const double cpu_start = ProcessCpuMs();
  const double start = NowMs();
  while (NowMs() - start < options.seconds * 1e3) {
    calls.push_back(RunCall(config, inputs, inputs.pool.get(), clusterer,
                            calls.size(), options.seed, options.threads));
  }
  const double wall_ms = NowMs() - start;
  const double cpu_ms = ProcessCpuMs() - cpu_start;
  const double rss_mb = PeakRssMb();

  std::vector<double> latencies;
  uint64_t measured_ops = 0;
  uint64_t reference = Hash64("perfbench-reference");
  for (size_t c = 0; c < calls.size(); ++c) {
    result.attempted += calls[c].ops;
    result.failed += calls[c].failed;
    if (c < kLevelCount) {
      reference = Hash64(&calls[c].digest, sizeof(uint64_t), reference);
    }
    if (c >= first_measured) {
      measured_ops += calls[c].ops;
      latencies.push_back(calls[c].ms);
    }
  }
  result.reference_digest =
      Format("%016llx", static_cast<unsigned long long>(reference));
  result.reference_ops = kLevelCount * calls[0].ops;
  const double ops = static_cast<double>(measured_ops);

  Metrics e2e;
  SetEndToEnd(&e2e, "ops_per_s", ops / (wall_ms / 1e3), measured_ops);
  SetEndToEnd(&e2e, "cpu_ms_per_op", cpu_ms / ops, measured_ops);
  SetEndToEnd(&e2e, "job_p50_ms", Percentile(latencies, 50), latencies.size());
  SetEndToEnd(&e2e, "job_p99_ms", Percentile(latencies, 99), latencies.size());
  SetEndToEnd(&e2e, "setup_s", Percentile(setup_ms, 50) / 1e3,
              setup_ms.size());
  SetEndToEnd(&e2e, "peak_rss_mb", rss_mb);
  if (!options.trace) {
    result.metrics = std::move(e2e);
    return result;
  }

  // Traced pass: the first calls again through the traced clusterers, each
  // paired with an untraced rerun of the same call (interleaved, so drift
  // hits both sides), on fresh pools so the cache counters see the builds a
  // run really makes. Both reruns must reproduce the window's bytes.
  Metrics layers;
  EngineCounters counters;
  const TracedFosc traced_fosc(fosc, &counters);
  const TracedMpck traced_mpck(mpck_config, &counters);
  const SemiSupervisedClusterer& traced =
      config.fosc ? static_cast<const SemiSupervisedClusterer&>(traced_fosc)
                  : traced_mpck;
  DatasetCachePool plain_pool(kPoolBytes);
  DatasetCachePool traced_pool(kPoolBytes);
  EngineTrace trace;
  double untraced_ms = 0.0, traced_ms = 0.0;
  for (size_t c = 0; c < config.traced_calls; ++c) {
    const CallOutcome plain = RunCall(config, inputs, &plain_pool, clusterer,
                                      c, options.seed, options.threads);
    EnableTracing();
    const double cpu_before = ProcessCpuMs();
    BeginOp(c, "op.experiment");
    const CallOutcome outcome = RunCall(config, inputs, &traced_pool, traced,
                                        c, options.seed, options.threads);
    EndOp();
    trace.busy_ms += ProcessCpuMs() - cpu_before;
    DisableTracing();
    trace.ops += outcome.ops;
    traced_ms += outcome.ms;
    untraced_ms += plain.ms;
    result.attempted += outcome.ops;
    result.failed += outcome.failed;
    if (outcome.digest != plain.digest ||
        (c < calls.size() && outcome.digest != calls[c].digest)) {
      result.failed += outcome.ops;
      result.mismatched += outcome.ops;
      result.notes.push_back("traced call " + std::to_string(c) +
                             " output differs from the untraced run");
    }
  }
  trace.spans = TakeSpans();

  // Stages hidden inside the engine, timed by direct calls on the
  // collection at every level; then the geometry of every member.
  HiddenStageTimes hidden;
  for (size_t level = 0; level < kLevelCount; ++level) {
    for (size_t d = 0; d < config.hidden_sets; ++d) {
      const Dataset& data = inputs.collection[d];
      Rng rng = Rng(options.seed).Fork(3).Fork(level).Fork(d);
      Result<std::vector<size_t>> labeled =
          SampleLabeledObjects(data, kLevels[level], &rng);
      if (!labeled.ok()) continue;
      const Supervision supervision =
          Supervision::FromLabels(data, std::move(labeled).value());
      const Status status = ReplayHiddenStages(
          data, supervision, clusterer, grid, kFolds, !config.fosc,
          traced_pool.For(data.points()), rng.NextUint64(), &hidden);
      if (!status.ok()) result.notes.push_back(status.ToString());
    }
  }
  GeometryTimes geometry;
  const std::vector<int> no_models;
  for (const Dataset& data : inputs.collection) {
    TimeGeometry(data.points(), config.fosc ? grid : no_models, &geometry);
  }
  SetEngineLayerMetrics(trace, counters, hidden, geometry, &layers);

  const DatasetCache::Stats stats = traced_pool.AggregateStats();
  SetLayer(&layers, "dataset_cache.model_builds",
           static_cast<double>(stats.model_builds));
  SetLayer(&layers, "dataset_cache.model_hits",
           static_cast<double>(stats.model_hits));
  SetLayer(&layers, "dataset_cache.model_loads",
           static_cast<double>(stats.model_loads));
  SetLayer(&layers, "dataset_cache.distance_builds",
           static_cast<double>(stats.distance_builds));
  const uint64_t model_keys = config.fosc ? kSets * grid.size() : 0;
  SetLayer(&layers, "dataset_cache.model_build_useful_ratio",
           UsefulRatio(model_keys, stats.model_builds), stats.model_builds);
  SetLayer(&layers, "dataset_cache.distance_build_useful_ratio",
           UsefulRatio(kSets, stats.distance_builds),
           stats.distance_builds);
  SetLayer(&layers, "parallel.cpu_util",
           cpu_ms / (wall_ms * static_cast<double>(options.threads)));
  const double traced_ops = static_cast<double>(trace.ops);
  SetLayer(&layers, "trace.overhead_ops_per_s",
           traced_ops / (traced_ms / 1e3) - traced_ops / (untraced_ms / 1e3),
           trace.ops);
  FillUnsetLayers(&layers);

  const std::string trace_path = options.run_dir + "/trace.json";
  if (!WriteChromeTrace(trace.spans, trace_path)) {
    result.notes.push_back("could not write " + trace_path);
  }
  result.notes.push_back("traced pass: " + std::to_string(trace.ops) +
                         " ops, " + std::to_string(trace.spans.size()) +
                         " spans");
  result.metrics = std::move(layers);
  return result;
}

}  // namespace perfbench
