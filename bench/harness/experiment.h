#ifndef CVCP_BENCH_HARNESS_EXPERIMENT_H_
#define CVCP_BENCH_HARNESS_EXPERIMENT_H_

/// \file
/// The paper's experimental protocol (§4.1), shared by every table/figure
/// bench. One *trial* =
///   1. sample supervision from the ground truth (labels: x% of objects;
///      constraints: a fraction of the 10%-per-class all-pairs pool);
///   2. run CVCP over the parameter grid (internal CV F-measure per value);
///   3. cluster with full supervision at *every* grid value; compute the
///      external Overall F-Measure on the objects not involved in the
///      supervision (and the Silhouette for centroid algorithms);
///   4. derive: per-trial internal/external correlation, the external
///      quality of the CVCP pick, the expected quality (grid mean), and
///      the Silhouette pick's quality.
/// Experiments aggregate trials (mean/std, paired t-tests at alpha=.05);
/// ALOI experiments additionally aggregate over collection members and
/// count per-dataset significance as the paper's captions do.

#include <limits>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/stats.h"
#include "core/clusterer.h"
#include "core/cvcp.h"

namespace cvcp {
class DatasetCachePool;  // core/dataset_cache.h
}

namespace cvcp::bench {

/// Which supervision scenario a trial uses: kLabels (§4.2.1/§4.3.1, x%
/// labeled objects) or kConstraints (§4.2.2/§4.3.2, x% of the constraint
/// pool).
using Scenario = SupervisionKind;

/// Static description of one experimental cell.
struct TrialSpec {
  Scenario scenario = Scenario::kLabels;
  /// Label fraction (0.05/0.10/0.20) or constraint-pool fraction
  /// (0.10/0.20/0.50).
  double level = 0.10;
  /// Per-class fraction used to build the constraint pool (paper: 0.10).
  double pool_fraction = 0.10;
  std::vector<int> grid;
  int n_folds = 5;
  /// Also select by silhouette (paper: MPCKMeans only).
  bool with_silhouette = false;
  /// Total thread budget, shared by every nesting level (ALOI datasets >
  /// trials > CVCP grid×fold cells / full-supervision sweep); any thread
  /// count yields identical results.
  ExecutionContext exec;
  /// Optional run-wide cache pool (one shared memory LRU + optional
  /// persistent ArtifactStore tier). When set, `RunExperiment` fronts the
  /// dataset through `cache_pool->For(...)` — so trials at *different
  /// supervision levels*, different tables, and different datasets of a
  /// bench run share geometry, and a warm store directory satisfies model
  /// builds from disk. Null gives each experiment a private
  /// DatasetCache. Results are byte-identical either way.
  DatasetCachePool* cache_pool = nullptr;
};

/// Everything measured in one trial.
struct TrialResult {
  bool ok = false;
  std::string error;  ///< set when !ok

  std::vector<double> internal_scores;  ///< per grid value (CV F-measure)
  std::vector<double> external_scores;  ///< per grid value (Overall F)
  std::vector<double> silhouettes;      ///< per grid value (NaN if skipped)

  double correlation = 0.0;  ///< Pearson(internal, external); NaN if flat
  int cvcp_param = 0;
  /// External quality of the CVCP pick; NaN until assigned (e.g. when the
  /// pick's external F is undefined because every object is supervised).
  double cvcp_external = std::numeric_limits<double>::quiet_NaN();
  double expected_external = 0.0;
  int silhouette_param = 0;
  /// NaN when not computed.
  double silhouette_external = std::numeric_limits<double>::quiet_NaN();
};

/// Runs one trial. `trial_seed` fully determines the randomness. `cache`
/// is the dataset's compute cache, shared by the CVCP run, the
/// full-supervision sweep, and the silhouette evaluations (and, through
/// RunExperiment, by every concurrent trial of the dataset); results are
/// byte-identical whichever cache serves them.
TrialResult RunTrial(const Dataset& data,
                     const SemiSupervisedClusterer& clusterer,
                     const TrialSpec& spec, uint64_t trial_seed,
                     DatasetCache& cache);

/// Aggregate of one experimental cell (dataset x level x algorithm).
/// All means/stds skip NaN entries and the paired t-tests drop pairs where
/// either side is NaN, so one trial with an undefined score degrades the
/// sample size instead of poisoning the whole cell.
struct CellAggregate {
  int trials_ok = 0;
  double corr_mean = 0.0;  ///< mean per-trial correlation (NaN-skipping)
  double cvcp_mean = 0.0, cvcp_std = 0.0;
  double exp_mean = 0.0, exp_std = 0.0;
  double sil_mean = 0.0, sil_std = 0.0;  ///< NaN when silhouette skipped
  PairedTTestResult cvcp_vs_exp{};
  PairedTTestResult cvcp_vs_sil{};

  // Per-trial series (for boxplots and pooled tests).
  std::vector<double> cvcp_values;
  std::vector<double> exp_values;
  std::vector<double> sil_values;
  std::vector<double> correlations;

  /// Recomputes every derived statistic above from the per-trial series:
  /// means/stds over the defined (non-NaN) entries of each series, paired
  /// t-tests over the positions where both sides are defined (fewer than 2
  /// such pairs leaves the "no test ran" default, which is never
  /// significant). `cvcp_vs_sil` is only computed with silhouettes on.
  void Finalize(bool with_silhouette);
};

/// Runs `trials` independent trials (seeds forked from `seed` by trial id)
/// and aggregates. Trials fan out over the execution engine within
/// `spec.exec`'s budget (PlanBudget); seeds are pre-forked by trial id and
/// the reduction runs in trial order, so the aggregate (including error /
/// skip semantics) is byte-identical for every thread count.
CellAggregate RunExperiment(const Dataset& data,
                            const SemiSupervisedClusterer& clusterer,
                            const TrialSpec& spec, int trials, uint64_t seed);

/// ALOI-collection experiment: the cell is run per collection member; the
/// paper reports the across-collection mean and how many members had a
/// significant CVCP-vs-Expected difference. Collection members fan out on
/// the execution engine (seeds pre-forked by dataset index, reduction in
/// dataset order), so the aggregate is byte-identical for every thread
/// count.
struct AloiAggregate {
  std::vector<CellAggregate> per_dataset;
  int significant_vs_expected = 0;  ///< paired t-test per dataset, alpha=.05
  int significant_vs_silhouette = 0;
  /// All trial values pooled over the collection (Figures 9-12 boxplots).
  CellAggregate pooled;
};

AloiAggregate RunAloiExperiment(const std::vector<Dataset>& collection,
                                const SemiSupervisedClusterer& clusterer,
                                const TrialSpec& spec, int trials,
                                uint64_t seed);

/// "0.7489 ±0.0531"-style cell text.
std::string FormatMeanStd(double mean, double stddev);

/// Significance marker for a table cell: "*" when p < 0.05.
std::string SigMarker(const PairedTTestResult& test);

}  // namespace cvcp::bench

#endif  // CVCP_BENCH_HARNESS_EXPERIMENT_H_
