// Scenario I walkthrough on real data: the user has labels for 10% of the
// Iris flowers and wants the best MinPts for density-based semi-supervised
// clustering (FOSC-OPTICSDend). Mirrors the paper's §3.1.1 setup and prints
// every intermediate the framework produces:
//   supervision -> per-fold splits -> per-MinPts CV scores -> selection ->
//   final clustering vs ground truth (on the objects CVCP never saw).

#include <cstdio>

#include "common/rng.h"
#include "constraints/oracle.h"
#include "core/cross_validation.h"
#include "core/cvcp.h"
#include "data/iris.h"
#include "data/paper_suites.h"
#include "eval/external_measures.h"

int main() {
  cvcp::Rng rng(/*seed=*/20140324);
  cvcp::Dataset iris = cvcp::MakeIris();
  std::printf("Iris: %zu flowers, %zu attributes, %d species\n", iris.size(),
              iris.dims(), iris.NumClasses());

  // --- Supervision: 10% labeled objects. ---
  auto labeled = cvcp::SampleLabeledObjects(iris, 0.10, &rng);
  if (!labeled.ok()) {
    std::fprintf(stderr, "%s\n", labeled.status().ToString().c_str());
    return 1;
  }
  cvcp::Supervision supervision =
      cvcp::Supervision::FromLabels(iris, labeled.value());
  std::printf("labeled objects: %zu  => derived constraints: %zu "
              "(%zu must-link, %zu cannot-link)\n",
              supervision.involved_objects().size(),
              supervision.constraints().size(),
              supervision.constraints().num_must_links(),
              supervision.constraints().num_cannot_links());

  // --- Peek at one CV split to see the sound fold construction. ---
  {
    cvcp::Rng peek_rng(1);
    auto folds = cvcp::MakeSupervisionFolds(
        iris, supervision, {.n_folds = 5, .exec = {}}, &peek_rng);
    if (folds.ok()) {
      const cvcp::FoldSplit& f = folds->front();
      std::printf(
          "fold 1 of 5: %zu train objects (%zu constraints) / %zu test "
          "objects (%zu constraints), zero overlap by construction\n",
          f.train_objects.size(), f.train_constraints.size(),
          f.test_objects.size(), f.test_constraints.size());
    }
  }

  // --- CVCP over the paper's MinPts grid. ---
  cvcp::FoscOpticsDendClusterer clusterer;
  cvcp::CvcpConfig config;
  config.cv.n_folds = 5;
  config.param_grid = cvcp::DefaultMinPtsGrid();
  auto report = cvcp::RunCvcp(iris, supervision, clusterer, config, &rng);
  if (!report.ok()) {
    std::fprintf(stderr, "CVCP failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  std::printf("\n MinPts   cross-validated constraint F-measure\n");
  for (const auto& s : report->scores) {
    std::printf("   %2d     %.4f  (%d valid folds)%s\n", s.param, s.score,
                s.valid_folds,
                s.param == report->best_param ? "   <- selected" : "");
  }

  // --- External check on the objects not involved in supervision. ---
  std::vector<bool> exclude = supervision.InvolvementMask(iris.size());
  const double overall_f =
      cvcp::OverallFMeasure(iris.labels(), report->final_clustering, &exclude);
  std::printf(
      "\nfinal model: MinPts=%d -> %d clusters, %zu noise points\n",
      report->best_param, report->final_clustering.NumClusters(),
      report->final_clustering.NumNoise());
  std::printf("Overall F-Measure vs ground truth (unseen objects): %.4f\n",
              overall_f);
  return 0;
}
