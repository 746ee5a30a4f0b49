#include "harness/paper_bench.h"

#include <cmath>
#include <cstdio>

#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/dataset_cache.h"
#include "eval/boxplot.h"

namespace cvcp::bench {

namespace {

/// Level label like "5" or "10" from a fraction.
std::string LevelLabel(double level) {
  return Format("%g", level * 100.0);
}

TrialSpec SpecFor(const PaperBenchContext& ctx, BenchAlgo algo,
                  Scenario scenario, double level, int num_classes) {
  TrialSpec spec;
  spec.scenario = scenario;
  spec.level = level;
  spec.n_folds = ctx.options.n_folds;
  spec.grid = GridFor(algo, num_classes);
  spec.with_silhouette = algo != BenchAlgo::kFosc;
  spec.exec.threads = ctx.options.threads;
  spec.cache_pool = ctx.cache_pool.get();
  return spec;
}

/// Stable per-cell seed: mixes the master seed with dataset/level ids.
uint64_t CellSeed(const PaperBenchContext& ctx, uint64_t dataset_id,
                  uint64_t level_id) {
  return Rng(ctx.options.seed).Fork(dataset_id).Fork(level_id).seed();
}

}  // namespace

PaperBenchContext MakeContext(const BenchOptions& options) {
  PaperBenchContext ctx;
  ctx.options = options;
  ctx.aloi = MakeAloiK5Collection(options.seed, options.aloi_datasets);
  ctx.suite = MakePaperSuite(options.seed);
  if (!options.store_dir.empty()) {
    ctx.store = std::make_unique<ArtifactStore>(options.store_dir);
  }
  ctx.cache_pool = std::make_unique<DatasetCachePool>(
      static_cast<size_t>(options.store_capacity_mb) * 1024 * 1024,
      ctx.store.get());
  return ctx;
}

std::unique_ptr<SemiSupervisedClusterer> MakeClusterer(BenchAlgo algo) {
  switch (algo) {
    case BenchAlgo::kFosc:
      return std::make_unique<FoscOpticsDendClusterer>();
    case BenchAlgo::kMpck:
      return std::make_unique<MpckMeansClusterer>();
    case BenchAlgo::kCop:
      return std::make_unique<CopKMeansClusterer>();
  }
  return nullptr;
}

std::vector<int> GridFor(BenchAlgo algo, int num_classes) {
  if (algo == BenchAlgo::kFosc) return DefaultMinPtsGrid();
  return MakeKGrid(num_classes);
}

void RunCorrelationTable(const PaperBenchContext& ctx, BenchAlgo algo,
                         Scenario scenario,
                         const std::vector<double>& levels,
                         const std::string& caption) {
  auto clusterer = MakeClusterer(algo);
  TextTable table(caption);
  std::vector<std::string> header = {"Percent", "ALOI"};
  for (const SuiteEntry& e : ctx.suite) header.push_back(e.data.name());
  table.SetHeader(header);

  for (size_t li = 0; li < levels.size(); ++li) {
    std::vector<std::string> row = {LevelLabel(levels[li])};
    // ALOI column: mean of per-dataset correlation means.
    {
      TrialSpec spec = SpecFor(ctx, algo, scenario, levels[li], 5);
      AloiAggregate agg = RunAloiExperiment(ctx.aloi, *clusterer, spec,
                                            ctx.options.trials,
                                            CellSeed(ctx, 1000, li));
      std::vector<double> per_dataset;
      for (const CellAggregate& cell : agg.per_dataset) {
        if (!std::isnan(cell.corr_mean)) per_dataset.push_back(cell.corr_mean);
      }
      row.push_back(FormatDouble(Mean(per_dataset)));
    }
    for (size_t di = 0; di < ctx.suite.size(); ++di) {
      const SuiteEntry& entry = ctx.suite[di];
      TrialSpec spec = SpecFor(ctx, algo, scenario, levels[li],
                               entry.data.NumClasses());
      CellAggregate cell =
          RunExperiment(entry.data, *clusterer, spec, ctx.options.trials,
                        CellSeed(ctx, di, li));
      row.push_back(FormatDouble(cell.corr_mean));
    }
    table.AddRow(row);
  }
  std::fputs(table.Render().c_str(), stdout);
}

void RunPerformanceTable(const PaperBenchContext& ctx, BenchAlgo algo,
                         Scenario scenario, double level,
                         const std::string& caption) {
  auto clusterer = MakeClusterer(algo);
  const bool with_sil = algo != BenchAlgo::kFosc;

  TextTable table(caption);
  std::vector<std::string> header = {"Data sets", "CVCP", "Expected"};
  if (with_sil) header.push_back("Silhouette");
  header.push_back("sig");
  table.SetHeader(header);

  int aloi_significant = 0;
  // ALOI row.
  {
    TrialSpec spec = SpecFor(ctx, algo, scenario, level, 5);
    AloiAggregate agg = RunAloiExperiment(ctx.aloi, *clusterer, spec,
                                          ctx.options.trials,
                                          CellSeed(ctx, 1000, 0));
    aloi_significant = agg.significant_vs_expected;
    std::vector<std::string> row = {"ALOI"};
    row.push_back(FormatMeanStd(agg.pooled.cvcp_mean, agg.pooled.cvcp_std));
    row.push_back(FormatMeanStd(agg.pooled.exp_mean, agg.pooled.exp_std));
    if (with_sil) {
      row.push_back(FormatMeanStd(agg.pooled.sil_mean, agg.pooled.sil_std));
    }
    row.push_back(SigMarker(agg.pooled.cvcp_vs_exp));
    table.AddRow(row);
  }
  for (size_t di = 0; di < ctx.suite.size(); ++di) {
    const SuiteEntry& entry = ctx.suite[di];
    TrialSpec spec =
        SpecFor(ctx, algo, scenario, level, entry.data.NumClasses());
    CellAggregate cell = RunExperiment(entry.data, *clusterer, spec,
                                       ctx.options.trials, CellSeed(ctx, di, 0));
    std::vector<std::string> row = {entry.data.name()};
    row.push_back(FormatMeanStd(cell.cvcp_mean, cell.cvcp_std));
    row.push_back(FormatMeanStd(cell.exp_mean, cell.exp_std));
    if (with_sil) row.push_back(FormatMeanStd(cell.sil_mean, cell.sil_std));
    row.push_back(SigMarker(cell.cvcp_vs_exp));
    table.AddRow(row);
  }
  std::fputs(table.Render().c_str(), stdout);
  std::printf(
      "%d/%zu ALOI datasets significant (paired t-test CVCP vs Expected, "
      "alpha=0.05); '*' marks significant rows.\n",
      aloi_significant, ctx.aloi.size());
}

void RunBoxplotFigure(const PaperBenchContext& ctx, BenchAlgo algo,
                      Scenario scenario, const std::vector<double>& levels,
                      const std::string& caption) {
  auto clusterer = MakeClusterer(algo);
  const bool with_sil = algo != BenchAlgo::kFosc;
  std::printf("%s\n", caption.c_str());

  std::vector<LabeledBox> boxes;
  for (size_t li = 0; li < levels.size(); ++li) {
    TrialSpec spec = SpecFor(ctx, algo, scenario, levels[li], 5);
    AloiAggregate agg = RunAloiExperiment(ctx.aloi, *clusterer, spec,
                                          ctx.options.trials,
                                          CellSeed(ctx, 1000, li));
    const std::string lvl = LevelLabel(levels[li]);
    boxes.push_back(
        {"CVCP-" + lvl, BoxplotStats::FromSamples(agg.pooled.cvcp_values)});
    boxes.push_back(
        {"Exp-" + lvl, BoxplotStats::FromSamples(agg.pooled.exp_values)});
    if (with_sil) {
      // FromSamples drops NaNs itself and keeps the total count, so the
      // rendered "n=defined/total" shows how many trials had no pick.
      boxes.push_back(
          {"Sil-" + lvl, BoxplotStats::FromSamples(agg.pooled.sil_values)});
    }
  }
  // Shared axis across all boxes.
  double lo = 1.0, hi = 0.0;
  for (const LabeledBox& b : boxes) {
    if (b.stats.n == 0) continue;
    lo = std::min(lo, b.stats.min);
    hi = std::max(hi, b.stats.max);
  }
  if (lo >= hi) {
    lo = 0.0;
    hi = 1.0;
  }
  std::fputs(RenderBoxplots(boxes, lo, hi).c_str(), stdout);
}

namespace {

/// Per-grid-position mean of a series across trials, NaN-skipping.
std::vector<double> MeanCurve(
    const std::vector<std::vector<double>>& series) {
  if (series.empty()) return {};
  std::vector<double> out(series[0].size(), 0.0);
  for (size_t gi = 0; gi < out.size(); ++gi) {
    double sum = 0.0;
    size_t n = 0;
    for (const auto& s : series) {
      if (!std::isnan(s[gi])) {
        sum += s[gi];
        ++n;
      }
    }
    out[gi] = n > 0 ? sum / static_cast<double>(n)
                    : std::numeric_limits<double>::quiet_NaN();
  }
  return out;
}

}  // namespace

void RunCurveFigure(const PaperBenchContext& ctx, BenchAlgo algo,
                    Scenario scenario, double level,
                    const std::string& caption) {
  auto clusterer = MakeClusterer(algo);
  std::printf("%s\n", caption.c_str());

  // The paper shows curves for a representative (well-correlating) ALOI
  // member. Pick the member with the best mean per-trial correlation, then
  // plot its trial-averaged internal/external curves.
  TrialSpec spec = SpecFor(ctx, algo, scenario, level, 5);
  size_t best_idx = 0;
  double best_corr = -2.0;
  std::vector<std::vector<double>> best_internal, best_external;
  for (size_t d = 0; d < ctx.aloi.size(); ++d) {
    std::vector<std::vector<double>> internal, external;
    std::vector<double> corrs;
    Rng seed_rng(CellSeed(ctx, d, 77));
    DatasetCache& cache = *ctx.cache_pool->For(ctx.aloi[d].points());
    clusterer->PrewarmCache(ctx.aloi[d], spec.grid, &cache, spec.exec);
    for (int t = 0; t < ctx.options.trials; ++t) {
      TrialResult trial = RunTrial(ctx.aloi[d], *clusterer, spec,
                                   seed_rng.Fork(static_cast<uint64_t>(t))
                                       .seed(),
                                   cache);
      if (!trial.ok) continue;
      internal.push_back(trial.internal_scores);
      external.push_back(trial.external_scores);
      if (!std::isnan(trial.correlation)) corrs.push_back(trial.correlation);
    }
    if (corrs.empty()) continue;
    const double mean_corr = Mean(corrs);
    if (mean_corr > best_corr) {
      best_corr = mean_corr;
      best_idx = d;
      best_internal = internal;
      best_external = external;
    }
  }
  if (best_internal.empty()) {
    std::printf("no successful trial\n");
    return;
  }
  const std::vector<double> internal_mean = MeanCurve(best_internal);
  const std::vector<double> external_mean = MeanCurve(best_external);
  // CVCP pick on the averaged internal curve (display only).
  int display_pick = spec.grid[0];
  double display_best = -1.0;
  for (size_t gi = 0; gi < spec.grid.size(); ++gi) {
    if (!std::isnan(internal_mean[gi]) && internal_mean[gi] > display_best) {
      display_best = internal_mean[gi];
      display_pick = spec.grid[gi];
    }
  }

  const char* param_name = algo == BenchAlgo::kFosc ? "MinPts" : "k";
  TextTable table(
      Format("dataset %s — trial-averaged internal CVCP score vs external "
             "Overall F-Measure per %s (%d trials)",
             ctx.aloi[best_idx].name().c_str(), param_name,
             ctx.options.trials));
  table.SetHeader({param_name, "internal (CV F)", "external (Overall F)",
                   ""});
  for (size_t gi = 0; gi < spec.grid.size(); ++gi) {
    table.AddRow({Format("%d", spec.grid[gi]),
                  FormatDouble(internal_mean[gi]),
                  FormatDouble(external_mean[gi]),
                  spec.grid[gi] == display_pick ? "<- CVCP pick" : ""});
  }
  std::fputs(table.Render().c_str(), stdout);
  std::printf(
      "mean per-trial correlation = %s; correlation of averaged curves = %s"
      "   (paper reports ~0.94-0.99)\n",
      FormatDouble(best_corr).c_str(),
      FormatDouble(PearsonCorrelation(internal_mean, external_mean)).c_str());
}

void PrintStoreStats(const PaperBenchContext& ctx) {
  if (ctx.cache_pool == nullptr) return;
  const DatasetCache::Stats c = ctx.cache_pool->AggregateStats();
  const ShardedLruCache::Stats m = ctx.cache_pool->memory().stats();
  std::fprintf(
      stderr,
      "cache-stats: dist_builds=%llu dist_loads=%llu dist_hits=%llu "
      "model_builds=%llu model_loads=%llu model_hits=%llu "
      "lru_entries=%zu lru_charge=%zu lru_evictions=%llu\n",
      static_cast<unsigned long long>(c.distance_builds),
      static_cast<unsigned long long>(c.distance_loads),
      static_cast<unsigned long long>(c.distance_hits),
      static_cast<unsigned long long>(c.model_builds),
      static_cast<unsigned long long>(c.model_loads),
      static_cast<unsigned long long>(c.model_hits), m.entries, m.charge,
      static_cast<unsigned long long>(m.evictions));
  if (ctx.store == nullptr) return;
  const ArtifactStore::Stats s = ctx.store->stats();
  std::fprintf(
      stderr,
      "store-stats: dir=%s disk_hits=%llu disk_misses=%llu "
      "corrupt_misses=%llu version_misses=%llu writes=%llu "
      "write_errors=%llu bytes_read=%llu bytes_written=%llu\n",
      ctx.store->directory().c_str(),
      static_cast<unsigned long long>(s.disk_hits),
      static_cast<unsigned long long>(s.disk_misses),
      static_cast<unsigned long long>(s.corrupt_misses),
      static_cast<unsigned long long>(s.version_misses),
      static_cast<unsigned long long>(s.writes),
      static_cast<unsigned long long>(s.write_errors),
      static_cast<unsigned long long>(s.bytes_read),
      static_cast<unsigned long long>(s.bytes_written));
}

}  // namespace cvcp::bench
