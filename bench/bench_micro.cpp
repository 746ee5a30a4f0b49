// Micro-benchmarks (google-benchmark) for the core primitives: constraint
// closure, fold splitting, OPTICS, k-means, MPCKMeans iterations, FOSC
// extraction, distance kernels and the constraint F-measure: the
// primitives behind the paper-scale benches. Before the google-benchmark
// suites run, main() prints the scaling tables for the parallel execution
// engine: CVCP serial-vs-parallel (cells run in canonical grid-by-fold
// order at every width), the trial-level fan-out on a wide
// outer loop, and the per-dataset compute cache on the FOSC scenario
// (serial vs parallel and store-cold vs store-warm, with build/hit counts
// and per-stage wall time) — plus the distance-matrix build table (a
// naive baseline against the tiled fixed-lane build at 1 and N threads).
//
// Unlike the paper benches, this binary takes google-benchmark flags; the
// few engine options it supports (--threads N, --store DIR, --json PATH)
// are stripped from argv before
// benchmark::Initialize. --threads N sets the parallel width of every
// table (default: all hardware threads). --store DIR adds store-cold /
// store-warm rows to the cache table (the warm row must serve every
// OPTICS model from disk). Every table row is mirrored into a
// machine-readable JSON report (--json PATH, default BENCH_micro.json;
// pass '' to disable).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>
#include <bit>

#include "cluster/dendrogram.h"
#include "cluster/fosc.h"
#include "cluster/kmeans.h"
#include "cluster/mpckmeans.h"
#include "cluster/optics.h"
#include "common/distance.h"
#include "common/distance_kernels.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "constraints/folds.h"
#include "constraints/oracle.h"
#include "constraints/transitive_closure.h"
#include "common/strings.h"
#include "core/artifact_store.h"
#include "core/cvcp.h"
#include "core/dataset_cache.h"
#include "core/fmeasure.h"
#include "data/generators.h"
#include "harness/experiment.h"

namespace {

using namespace cvcp;  // NOLINT

Dataset BenchData(size_t per_cluster, int k, size_t dims) {
  Rng rng(7);
  return MakeBlobs("bench", k, per_cluster, dims, 10.0, 1.0, &rng);
}

// Set false by any scaling-table row whose results drift from its
// baseline; main() exits nonzero so the CI smoke steps actually fail on
// a determinism regression instead of only printing it.
bool g_determinism_ok = true;

// Machine-readable mirror of every scaling-table row, emitted as
// BENCH_micro.json (--json PATH; empty disables). Each entry is one
// complete JSON object; WriteJsonReport wraps them with the determinism
// verdict.
std::vector<std::string> g_json_rows;

void AddJsonRow(std::string row) { g_json_rows.push_back(std::move(row)); }

void WriteJsonReport(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write JSON report %s\n", path.c_str());
    return;
  }
  std::fprintf(file,
               "{\n  \"bench\": \"bench_micro\",\n"
               "  \"arch\": \"%s\",\n"
               "  \"determinism_ok\": %s,\n  \"rows\": [\n",
               DistanceKernelArch(), g_determinism_ok ? "true" : "false");
  for (size_t i = 0; i < g_json_rows.size(); ++i) {
    std::fprintf(file, "    %s%s\n", g_json_rows[i].c_str(),
                 i + 1 < g_json_rows.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  std::fclose(file);
  std::printf("wrote %zu JSON rows to %s\n", g_json_rows.size(),
              path.c_str());
}

// NaN-safe exact equality: compares bit patterns, so NaN == NaN (same
// payload) and +0.0 != -0.0 — the byte-identity the engine guarantees.
bool BitsEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

ConstraintSet BenchConstraints(const Dataset& data, double frac) {
  Rng rng(11);
  auto pool = BuildConstraintPool(data, frac, &rng);
  CVCP_CHECK(pool.ok());
  return std::move(pool).value();
}

void BM_TransitiveClosure(benchmark::State& state) {
  Dataset data = BenchData(static_cast<size_t>(state.range(0)), 5, 8);
  ConstraintSet constraints = BenchConstraints(data, 0.2);
  for (auto _ : state) {
    auto closure = TransitiveClosure(constraints);
    benchmark::DoNotOptimize(closure);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(constraints.size()));
}
BENCHMARK(BM_TransitiveClosure)->Arg(25)->Arg(50)->Arg(100);

void BM_ConstraintFolds(benchmark::State& state) {
  Dataset data = BenchData(static_cast<size_t>(state.range(0)), 5, 8);
  ConstraintSet constraints = BenchConstraints(data, 0.2);
  Rng rng(13);
  FoldConfig config;
  config.n_folds = 5;
  for (auto _ : state) {
    auto folds = MakeConstraintFolds(constraints, config, &rng);
    benchmark::DoNotOptimize(folds);
  }
}
BENCHMARK(BM_ConstraintFolds)->Arg(25)->Arg(50)->Arg(100);

void BM_Optics(benchmark::State& state) {
  Dataset data = BenchData(static_cast<size_t>(state.range(0)), 5, 16);
  OpticsConfig config;
  config.min_pts = 5;
  for (auto _ : state) {
    auto result = RunOptics(data.points(), config);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Optics)->Arg(25)->Arg(50)->Arg(100);

// The dendrogram build and the FOSC extraction timed apart, each on a
// prebuilt input, so the extraction's scaling in n and |C| shows on its
// own. Arg: objects per cluster (5 clusters); the constraints are all
// pairs among 20 % of each class.
OpticsResult BenchPlot(const Dataset& data) {
  OpticsConfig config;
  config.min_pts = 5;
  auto optics = RunOptics(data.points(), config);
  CVCP_CHECK(optics.ok());
  return std::move(optics).value();
}

void BM_DendrogramBuild(benchmark::State& state) {
  Dataset data = BenchData(static_cast<size_t>(state.range(0)), 5, 16);
  const OpticsResult optics = BenchPlot(data);
  for (auto _ : state) {
    Dendrogram dg = Dendrogram::FromReachability(optics);
    benchmark::DoNotOptimize(dg);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_DendrogramBuild)
    ->Arg(25)->Arg(50)->Arg(100)->Arg(200)->Arg(400)->Arg(800);

void BM_FoscExtract(benchmark::State& state) {
  Dataset data = BenchData(static_cast<size_t>(state.range(0)), 5, 16);
  const Dendrogram dg = Dendrogram::FromReachability(BenchPlot(data));
  ConstraintSet constraints = BenchConstraints(data, 0.2);
  for (auto _ : state) {
    auto fosc = ExtractClusters(dg, constraints);
    benchmark::DoNotOptimize(fosc);
  }
  state.counters["constraints"] = static_cast<double>(constraints.size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(constraints.size()));
}
BENCHMARK(BM_FoscExtract)
    ->Arg(25)->Arg(50)->Arg(100)->Arg(200)->Arg(400)->Arg(800);

void BM_KMeans(benchmark::State& state) {
  Dataset data = BenchData(static_cast<size_t>(state.range(0)), 5, 16);
  KMeansConfig config;
  config.k = 5;
  config.n_init = 1;
  Rng rng(17);
  for (auto _ : state) {
    auto result = RunKMeans(data.points(), config, &rng);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_KMeans)->Arg(25)->Arg(50)->Arg(100);

// Arg0: objects per cluster (5 clusters); Arg1: dims. The 25 x 144 row
// has the ALOI-k5 shape (n = 125, d = 144) the Figure 10 protocol runs.
void BM_MpckMeans(benchmark::State& state) {
  Dataset data = BenchData(static_cast<size_t>(state.range(0)), 5,
                           static_cast<size_t>(state.range(1)));
  ConstraintSet constraints = BenchConstraints(data, 0.2);
  MpckMeansConfig config;
  config.k = 5;
  Rng rng(19);
  for (auto _ : state) {
    auto result = RunMpckMeans(data.points(), constraints, config, &rng);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_MpckMeans)
    ->Args({25, 16})
    ->Args({50, 16})
    ->Args({100, 16})
    ->Args({25, 144});

// The portable fixed-lane kernel against the dispatched native one (Arg0:
// 0 = portable, 1 = native; Arg1: dims). Both give the same bits.
void BM_SquaredEuclideanKernel(benchmark::State& state) {
  const DistanceKernels& kernels =
      state.range(0) == 0 ? FixedLaneKernelsPortable() : GetDistanceKernels();
  Rng rng(41);
  std::vector<double> a(static_cast<size_t>(state.range(1)));
  std::vector<double> b(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.NextDouble();
    b[i] = rng.NextDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels.squared_euclidean(a.data(), b.data(), a.size()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.size()));
}
BENCHMARK(BM_SquaredEuclideanKernel)
    ->Args({0, 16})
    ->Args({1, 16})
    ->Args({0, 128})
    ->Args({1, 128});

void BM_ConstraintFMeasure(benchmark::State& state) {
  Dataset data = BenchData(static_cast<size_t>(state.range(0)), 5, 8);
  ConstraintSet constraints = BenchConstraints(data, 0.3);
  Clustering clustering(data.labels());
  for (auto _ : state) {
    auto fm = EvaluateConstraintClassification(clustering, constraints);
    benchmark::DoNotOptimize(fm);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(constraints.size()));
}
BENCHMARK(BM_ConstraintFMeasure)->Arg(25)->Arg(50)->Arg(100);

// Serial-vs-parallel CVCP wall time on the engine's target workload: a
// 10-fold × 8-value MPCKMeans grid (80 clustering cells per run), at 1, 2
// and `max_threads` threads. Also cross-checks that every configuration
// selects the same parameter with the same score — the engine's
// determinism guarantee.
void PrintCvcpScalingTable(int max_threads) {
  Dataset data = BenchData(/*per_cluster=*/40, /*k=*/5, /*dims=*/16);
  Rng rng(23);
  auto labeled = SampleLabeledObjects(data, 0.3, &rng);
  CVCP_CHECK(labeled.ok());
  Supervision supervision = Supervision::FromLabels(data, labeled.value());

  MpckMeansClusterer clusterer;
  CvcpConfig config;
  config.cv.n_folds = 10;
  config.param_grid = {2, 3, 4, 5, 6, 7, 8, 9};

  std::vector<int> thread_counts = {1};
  if (max_threads >= 2) thread_counts.push_back(2);
  if (max_threads > 2) thread_counts.push_back(max_threads);

  std::printf(
      "=== CVCP serial vs parallel "
      "(MPCKMeans, %d-fold x %zu-value grid, n=%zu, up to %d threads) "
      "===\n",
      config.cv.n_folds, config.param_grid.size(), data.size(), max_threads);
  std::printf("%-16s %8s %12s %10s %10s %s\n", "mode", "threads",
              "wall_ms", "speedup", "efficiency", "matches serial");

  double serial_ms = 0.0;
  int serial_best = 0;
  double serial_score = 0.0;
  auto run_row = [&](const char* label, int threads) {
    config.cv.exec.threads = threads;
    Rng run_rng(29);
    const auto start = std::chrono::steady_clock::now();
    auto report = RunCvcp(data, supervision, clusterer, config, &run_rng);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    CVCP_CHECK(report.ok());
    if (threads == 1) {
      serial_ms = ms;
      serial_best = report->best_param;
      serial_score = report->best_score;
      std::printf("%-16s %8d %12.1f %9.2fx %9.2f%% %s\n", label, threads, ms,
                  1.0, 100.0, "(baseline)");
      AddJsonRow(Format(
          "{\"table\": \"cvcp_scaling\", \"mode\": \"%s\", \"threads\": %d, "
          "\"wall_ms\": %.3f, \"speedup\": 1.0, \"matches\": true}",
          label, threads, ms));
    } else {
      const bool matches = report->best_param == serial_best &&
                           BitsEqual(report->best_score, serial_score);
      if (!matches) g_determinism_ok = false;
      const double speedup = serial_ms / ms;
      std::printf("%-16s %8d %12.1f %9.2fx %9.2f%% %s\n", label, threads, ms,
                  speedup, 100.0 * speedup / threads,
                  matches ? "yes" : "NO — DETERMINISM BUG");
      AddJsonRow(Format(
          "{\"table\": \"cvcp_scaling\", \"mode\": \"%s\", \"threads\": %d, "
          "\"wall_ms\": %.3f, \"speedup\": %.3f, \"matches\": %s}",
          label, threads, ms, speedup, matches ? "true" : "false"));
    }
  };
  for (int threads : thread_counts) {
    run_row(threads == 1 ? "(serial)" : "parallel", threads);
  }
  std::printf("\n");
}

// The per-dataset compute cache on its target workload: FOSC-OPTICSDend,
// whose OPTICS + dendrogram stage is supervision-independent. The
// condensed distance matrix is built once, OPTICS runs once per grid
// value (G builds; the other G×(F-1)+1 of the G×F+1 OPTICS-dependent
// runs are memo hits), and every distance evaluation inside OPTICS is an
// O(1) lookup. The table prints per-stage wall time (distance build,
// OPTICS model builds) and build/hit counts next to the speedup columns,
// and cross-checks every row's report against the serial row bit for
// bit.
//
// With --store DIR two more rows run against the persistent tier: the
// "store-cold" row purges DIR and populates it, the "store-warm" row uses
// a *fresh* DatasetCache over the same directory — so every model on the
// warm row must come from disk (model_builds = 0, model_loads = G), which
// is the in-process rehearsal of the cross-process warm start. A warm row
// that rebuilds anything fails the run like a determinism bug would.
void PrintFoscCacheTable(int threads, const std::string& store_dir) {
  Dataset data = BenchData(/*per_cluster=*/40, /*k=*/5, /*dims=*/16);
  Rng rng(37);
  auto pool = BuildConstraintPool(data, 0.25, &rng);
  CVCP_CHECK(pool.ok());
  auto sampled = SampleConstraints(pool.value(), 0.5, &rng);
  CVCP_CHECK(sampled.ok());
  Supervision supervision =
      Supervision::FromConstraints(std::move(sampled).value());

  FoscOpticsDendClusterer clusterer;
  CvcpConfig config;
  config.cv.n_folds = 10;
  config.param_grid = {3, 4, 5, 6, 7, 8, 9, 10};
  const size_t cells =
      config.param_grid.size() * static_cast<size_t>(config.cv.n_folds) + 1;

  std::printf(
      "=== Per-dataset compute cache "
      "(FOSC-OPTICSDend, %d-fold x %zu-value MinPts grid = %zu OPTICS-"
      "dependent runs, n=%zu, %d threads) ===\n",
      config.cv.n_folds, config.param_grid.size(), cells, data.size(),
      threads);
  std::printf("%-10s %8s %12s %9s %7s %6s %10s %10s %8s %9s %s\n", "cache",
              "threads", "wall_ms", "speedup", "optics", "loads",
              "model_hit", "dist_b/h", "dist_ms", "optics_ms",
              "matches serial");

  double baseline_ms = 0.0;
  CvcpReport baseline;
  auto run_row = [&](const char* label, int row_threads, ArtifactStore* store,
                     bool expect_warm) {
    config.cv.exec.threads = row_threads;
    DatasetCache cache(data.points(), DatasetCacheTiers{nullptr, store});
    Rng run_rng(43);
    const auto start = std::chrono::steady_clock::now();
    auto report =
        RunCvcp(data, supervision, clusterer, config, &run_rng, &cache);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    CVCP_CHECK(report.ok());
    const bool is_baseline = row_threads == 1 && store == nullptr;
    if (is_baseline) {
      baseline_ms = ms;
      baseline = *report;
    }
    bool matches = report->best_param == baseline.best_param &&
                   BitsEqual(report->best_score, baseline.best_score);
    for (size_t g = 0; matches && g < baseline.scores.size(); ++g) {
      matches = BitsEqual(report->scores[g].score, baseline.scores[g].score);
    }
    matches = matches && report->final_clustering.assignment() ==
                             baseline.final_clustering.assignment();
    if (!matches) g_determinism_ok = false;
    const DatasetCache::Stats stats = cache.stats();
    const bool warm_ok =
        !expect_warm || (stats.model_builds == 0 && stats.model_loads > 0);
    if (!warm_ok) g_determinism_ok = false;
    char dist_col[32];
    std::snprintf(dist_col, sizeof(dist_col), "%llu/%llu",
                  static_cast<unsigned long long>(stats.distance_builds),
                  static_cast<unsigned long long>(stats.distance_hits));
    std::printf(
        "%-10s %8d %12.1f %8.2fx %7llu %6llu %10llu %10s %8.1f %9.1f %s\n",
        label, row_threads, ms, baseline_ms / ms,
        static_cast<unsigned long long>(stats.model_builds),
        static_cast<unsigned long long>(stats.model_loads),
        static_cast<unsigned long long>(stats.model_hits), dist_col,
        stats.distance_build_ms, stats.model_build_ms,
        is_baseline ? "(baseline)"
        : !matches  ? "NO — DETERMINISM BUG"
        : !warm_ok  ? "yes, but STORE NOT WARM"
                    : "yes");
    AddJsonRow(Format(
        "{\"table\": \"fosc_cache\", \"label\": \"%s\", \"threads\": %d, "
        "\"wall_ms\": %.3f, \"optics_runs\": %llu, \"model_builds\": %llu, "
        "\"model_loads\": %llu, \"model_hits\": %llu, "
        "\"dist_builds\": %llu, \"dist_loads\": %llu, \"dist_hits\": %llu, "
        "\"dist_ms\": %.3f, \"optics_ms\": %.3f, \"matches\": %s}",
        label, row_threads, ms,
        static_cast<unsigned long long>(stats.model_builds),
        static_cast<unsigned long long>(stats.model_builds),
        static_cast<unsigned long long>(stats.model_loads),
        static_cast<unsigned long long>(stats.model_hits),
        static_cast<unsigned long long>(stats.distance_builds),
        static_cast<unsigned long long>(stats.distance_loads),
        static_cast<unsigned long long>(stats.distance_hits),
        stats.distance_build_ms, stats.model_build_ms,
        matches && warm_ok ? "true" : "false"));
  };
  run_row("on", /*row_threads=*/1, nullptr, false);
  if (threads > 1) run_row("on", threads, nullptr, false);
  if (!store_dir.empty()) {
    ArtifactStore store(store_dir);
    auto purged = store.Purge();
    if (!purged.ok()) {
      std::fprintf(stderr, "%s\n", purged.status().ToString().c_str());
    }
    run_row("store-cold", /*row_threads=*/1, &store, /*expect_warm=*/false);
    run_row("store-warm", /*row_threads=*/1, &store, /*expect_warm=*/true);
    const ArtifactStore::Stats ss = store.stats();
    std::printf(
        "store %s: disk_hits=%llu disk_misses=%llu writes=%llu "
        "bytes_written=%llu bytes_read=%llu\n",
        store_dir.c_str(), static_cast<unsigned long long>(ss.disk_hits),
        static_cast<unsigned long long>(ss.disk_misses),
        static_cast<unsigned long long>(ss.writes),
        static_cast<unsigned long long>(ss.bytes_written),
        static_cast<unsigned long long>(ss.bytes_read));
    AddJsonRow(Format(
        "{\"table\": \"store\", \"dir\": \"%s\", \"disk_hits\": %llu, "
        "\"disk_misses\": %llu, \"corrupt_misses\": %llu, "
        "\"version_misses\": %llu, \"writes\": %llu, "
        "\"write_errors\": %llu, \"bytes_written\": %llu, "
        "\"bytes_read\": %llu}",
        store_dir.c_str(), static_cast<unsigned long long>(ss.disk_hits),
        static_cast<unsigned long long>(ss.disk_misses),
        static_cast<unsigned long long>(ss.corrupt_misses),
        static_cast<unsigned long long>(ss.version_misses),
        static_cast<unsigned long long>(ss.writes),
        static_cast<unsigned long long>(ss.write_errors),
        static_cast<unsigned long long>(ss.bytes_written),
        static_cast<unsigned long long>(ss.bytes_read)));
  }
  std::printf("\n");
}

// Shared row-runner for the two RunExperiment scaling tables: runs one
// engine configuration, prints wall time plus the derived
// speedup-vs-serial and efficiency (speedup / threads) columns, and
// cross-checks the engine's guarantee that every configuration produces
// bit-identical aggregates.
struct ExperimentScalingBaseline {
  double serial_ms = 0.0;
  uint64_t serial_mean_bits = 0;
  int serial_ok = 0;
};

void RunExperimentScalingRow(const Dataset& data,
                             const MpckMeansClusterer& clusterer,
                             cvcp::bench::TrialSpec spec, int trials,
                             const char* table, const char* label,
                             int threads,
                             ExperimentScalingBaseline* baseline) {
  spec.exec.threads = threads;
  const auto start = std::chrono::steady_clock::now();
  const cvcp::bench::CellAggregate agg =
      cvcp::bench::RunExperiment(data, clusterer, spec, trials, /*seed=*/31);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  const uint64_t mean_bits = std::bit_cast<uint64_t>(agg.cvcp_mean);
  if (threads == 1) {
    baseline->serial_ms = ms;
    baseline->serial_mean_bits = mean_bits;
    baseline->serial_ok = agg.trials_ok;
    std::printf("%-14s %8d %12.1f %9.2fx %9.2f%% %s\n", label, threads, ms,
                1.0, 100.0, "(baseline)");
    AddJsonRow(Format(
        "{\"table\": \"%s\", \"mode\": \"%s\", \"threads\": %d, "
        "\"wall_ms\": %.3f, \"speedup\": 1.0, \"matches\": true}",
        table, label, threads, ms));
  } else {
    const bool matches = mean_bits == baseline->serial_mean_bits &&
                         agg.trials_ok == baseline->serial_ok;
    if (!matches) g_determinism_ok = false;
    const double speedup = baseline->serial_ms / ms;
    std::printf("%-14s %8d %12.1f %9.2fx %9.2f%% %s\n", label, threads, ms,
                speedup, 100.0 * speedup / threads,
                matches ? "yes" : "NO — DETERMINISM BUG");
    AddJsonRow(Format(
        "{\"table\": \"%s\", \"mode\": \"%s\", \"threads\": %d, "
        "\"wall_ms\": %.3f, \"speedup\": %.3f, \"matches\": %s}",
        table, label, threads, ms, speedup, matches ? "true" : "false"));
  }
}

// Serial-vs-parallel wall time for the *trial-level* fan-out in
// RunExperiment on a wide outer loop (many trials): fully serial, then the
// nested-width budget of `threads` (PlanBudget: trial lanes × CVCP cell
// width ≈ budget, help-while-waiting balancing).
void PrintTrialScalingTable(int threads) {
  Dataset data = BenchData(/*per_cluster=*/25, /*k=*/4, /*dims=*/8);
  MpckMeansClusterer clusterer;

  cvcp::bench::TrialSpec spec;
  spec.scenario = cvcp::bench::Scenario::kLabels;
  spec.level = 0.20;
  spec.n_folds = 5;
  spec.grid = {2, 3, 4, 5};
  const int trials = std::max(8, threads);

  std::printf(
      "=== RunExperiment serial vs trial-parallel "
      "(MPCKMeans, %d trials, %d-fold x %zu-value grid, n=%zu, "
      "up to %d threads) ===\n",
      trials, spec.n_folds, spec.grid.size(), data.size(), threads);
  std::printf("%-14s %8s %12s %10s %10s %s\n", "mode", "threads", "wall_ms",
              "speedup", "efficiency", "matches serial");

  ExperimentScalingBaseline baseline;
  RunExperimentScalingRow(data, clusterer, spec, trials, "trial_scaling",
                          "serial", 1, &baseline);
  if (threads >= 2) {
    RunExperimentScalingRow(data, clusterer, spec, trials, "trial_scaling",
                            "nested", threads, &baseline);
  }
  std::printf("\n");
}

// The speed baseline of the distance table: every pair in condensed
// order, one left-to-right scalar sum per pair — no tiling, no batching,
// no SIMD dispatch.
std::vector<double> NaiveEuclideanCondensed(const Matrix& points) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  std::vector<double> out;
  out.reserve(n * (n - 1) / 2);
  for (size_t i = 0; i < n; ++i) {
    const double* a = points.Row(i).data();
    for (size_t j = i + 1; j < n; ++j) {
      const double* b = points.Row(j).data();
      double sum = 0.0;
      for (size_t m = 0; m < d; ++m) {
        const double e = a[m] - b[m];
        sum += e * e;
      }
      out.push_back(std::sqrt(sum));
    }
  }
  return out;
}

// Distance-matrix build on a 64-dimensional blob set: the naive loop
// above against the engine's tiled fixed-lane build at 1 and at `threads`
// threads. The speedup column is relative to the naive loop. The two
// tiled rows must agree bit for bit; a mismatch flips the process exit
// code via g_determinism_ok, like the other tables.
void PrintDistanceKernelTable(int threads) {
  Rng rng(53);
  Dataset data = MakeBlobs("kernel-bench", /*k=*/8, /*per_cluster=*/64,
                           /*dims=*/64, 10.0, 1.0, &rng);
  const Matrix& pts = data.points();

  std::printf(
      "=== Distance-matrix build (n=%zu, d=%zu, euclidean, arch=%s) ===\n",
      pts.rows(), pts.cols(), DistanceKernelArch());
  std::printf("%-24s %8s %10s %9s  %s\n", "configuration", "threads",
              "wall_ms", "speedup", "values");

  // Best-of-5 wall time.
  auto time_best = [](const std::function<void()>& build) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 5; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      build();
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      best = std::min(best, ms);
    }
    return best;
  };
  auto same_f64 = [](const DistanceMatrix& a, const DistanceMatrix& b) {
    const std::vector<double>& x = a.condensed();
    const std::vector<double>& y = b.condensed();
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (!BitsEqual(x[i], y[i])) return false;
    }
    return true;
  };

  ExecutionContext wide;
  wide.threads = threads;
  std::vector<double> naive;
  std::optional<DistanceMatrix> serial, parallel;
  const double ms_naive =
      time_best([&] { naive = NaiveEuclideanCondensed(pts); });
  const double ms_serial = time_best([&] {
    serial = DistanceMatrix::Compute(pts, Metric::kEuclidean,
                                     ExecutionContext::Serial());
  });
  const double ms_parallel = time_best([&] {
    parallel = DistanceMatrix::Compute(pts, Metric::kEuclidean, wide);
  });
  benchmark::DoNotOptimize(naive);

  const bool threads_ok = same_f64(*parallel, *serial);
  if (!threads_ok) g_determinism_ok = false;

  auto emit = [&](const char* label, int width, double ms, const char* values,
                  bool values_ok) {
    const double speedup = ms_naive / ms;
    std::printf("%-24s %8d %10.2f %8.2fx  %s\n", label, width, ms, speedup,
                values);
    AddJsonRow(Format(
        "{\"table\": \"distance_build\", \"config\": \"%s\", "
        "\"threads\": %d, \"n\": %zu, \"dims\": %zu, \"wall_ms\": %.4f, "
        "\"speedup\": %.3f, \"values_ok\": %s}",
        label, width, pts.rows(), pts.cols(), ms, speedup,
        values_ok ? "true" : "false"));
  };
  emit("naive-loop", 1, ms_naive, "(baseline)", true);
  emit("tiled-fixed-lane", 1, ms_serial, "(reference)", true);
  emit("tiled-fixed-lane", threads, ms_parallel,
       threads_ok ? "bitwise == 1-thread build"
                  : "NO — THREAD COUNT CHANGED VALUES",
       threads_ok);
  std::printf("\n");
}

// This binary's own flags, stripped from argv before google-benchmark
// sees the rest.
struct MicroOptions {
  int threads = 0;           // 0 = all hardware threads (every table's width)
  std::string store_dir;  // artifact store dir: store-cold/warm rows
  std::string json_path = "BENCH_micro.json";  // "" (via --json '') disables
};

MicroOptions StripMicroOptions(int* argc, char** argv) {
  MicroOptions o;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < *argc) {
      const char* value = argv[++i];
      if (!ParseInteger(value, &o.threads)) {
        std::fprintf(stderr,
                     "%s: bad value '%s' for --threads\n"
                     "usage: %s [--threads N] [--store DIR] "
                     "[--json PATH] [benchmark flags]\n",
                     argv[0], value, argv[0]);
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < *argc) {
      o.store_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < *argc) {
      o.json_path = argv[++i];
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  if (o.threads < 0) o.threads = 0;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const MicroOptions options = StripMicroOptions(&argc, argv);
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  const int table_threads = options.threads > 0 ? options.threads : hw;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  PrintDistanceKernelTable(table_threads);
  PrintCvcpScalingTable(table_threads);
  PrintTrialScalingTable(table_threads);
  PrintFoscCacheTable(table_threads, options.store_dir);
  if (!options.json_path.empty()) WriteJsonReport(options.json_path);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Nonzero on any "NO — DETERMINISM BUG" row so the CI smoke steps fail
  // on a regression instead of only printing it.
  return g_determinism_ok ? 0 : 1;
}
