// Property sweeps over the evaluation measures: bounds, degeneracy
// handling, and cross-measure consistency on randomly generated
// clusterings. Parameterized over seeds so each property is exercised on a
// spread of configurations.

#include <cmath>

#include <gtest/gtest.h>

#include "cluster/clustering.h"
#include "common/rng.h"
#include "core/fmeasure.h"
#include "constraints/oracle.h"
#include "data/generators.h"
#include "eval/external_measures.h"

namespace cvcp {
namespace {

class MeasureSweep : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    data_ = MakeBlobs("sweep", 1 + static_cast<int>(rng.Index(5)),
                      10 + rng.Index(30), 2 + rng.Index(4), 10.0, 2.0, &rng);
    // Random clustering with noise.
    std::vector<int> assignment(data_.size());
    const int k = 1 + static_cast<int>(rng.Index(6));
    for (auto& a : assignment) {
      a = rng.NextDouble() < 0.1 ? kNoise : static_cast<int>(rng.Index(k));
    }
    clustering_ = Clustering(std::move(assignment));
  }

  Dataset data_;
  Clustering clustering_;
};

TEST_P(MeasureSweep, AllMeasuresWithinBounds) {
  const auto& labels = data_.labels();
  auto in_unit = [](double v) { return std::isnan(v) || (v >= 0 && v <= 1); };
  EXPECT_TRUE(in_unit(OverallFMeasure(labels, clustering_)));
  const double ari = AdjustedRandIndex(labels, clustering_);
  EXPECT_TRUE(std::isnan(ari) || (ari >= -1.0 && ari <= 1.0));
}

TEST_P(MeasureSweep, GroundTruthClusteringIsOptimal) {
  const auto& labels = data_.labels();
  Clustering perfect(labels);
  EXPECT_DOUBLE_EQ(OverallFMeasure(labels, perfect), 1.0);
  // Any other clustering cannot beat it.
  EXPECT_LE(OverallFMeasure(labels, clustering_),
            OverallFMeasure(labels, perfect) + 1e-12);
}

TEST_P(MeasureSweep, ConstraintFMeasureConsistentWithPairCounts) {
  // Build ground-truth constraints; the F-measure's raw counts must agree
  // with the pair-counting on the involved objects.
  Rng rng(GetParam() + 1000);
  auto pool = BuildConstraintPool(data_, 0.3, &rng);
  ASSERT_TRUE(pool.ok());
  const ConstraintFMeasure fm =
      EvaluateConstraintClassification(clustering_, pool.value());
  size_t ml_together = 0, ml_apart = 0, cl_together = 0, cl_apart = 0;
  for (const Constraint& c : pool->all()) {
    const bool together = clustering_.SameCluster(c.a, c.b);
    if (c.type == ConstraintType::kMustLink) {
      together ? ++ml_together : ++ml_apart;
    } else {
      together ? ++cl_together : ++cl_apart;
    }
  }
  EXPECT_EQ(fm.ml_together, ml_together);
  EXPECT_EQ(fm.ml_apart, ml_apart);
  EXPECT_EQ(fm.cl_together, cl_together);
  EXPECT_EQ(fm.cl_apart, cl_apart);
  if (!std::isnan(fm.average)) {
    EXPECT_GE(fm.average, 0.0);
    EXPECT_LE(fm.average, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeasureSweep, ::testing::Range<uint64_t>(0, 10));

}  // namespace
}  // namespace cvcp
