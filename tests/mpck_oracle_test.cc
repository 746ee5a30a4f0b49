// Differential oracle suite for MPCKMeans. RunMpckMeans memoizes each
// distance once per window of fixed centroids and metric weights, batches
// it through the weighted x4/rows kernels and assigns in one pass over
// each object's partners; OracleRunMpckMeans (tests/mpck_oracle.h) is the
// implementation it replaced. Rng-driven instances assert bit equality of
// the assignment, centroids, metric weights, objective, iteration count,
// `converged` and the caller's Rng stream, and equal statuses for
// rejected inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/mpckmeans.h"
#include "common/rng.h"
#include "common/strings.h"
#include "constraints/constraint_set.h"
#include "data/paper_suites.h"
#include "tests/mpck_oracle.h"

namespace cvcp {
namespace {

constexpr MetricMode kModes[] = {MetricMode::kNone,
                                 MetricMode::kSingleDiagonal,
                                 MetricMode::kPerClusterDiagonal};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameBits(const Matrix& got, const Matrix& want,
                    const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (size_t i = 0; i < want.data().size(); ++i) {
    ASSERT_EQ(Bits(got.data()[i]), Bits(want.data()[i]))
        << what << " element " << i;
  }
}

/// Runs both implementations from the same seed and pins every output.
/// Returns the library result for callers that check more.
Result<MpckMeansResult> ExpectSameRun(const Matrix& points,
                                      const ConstraintSet& constraints,
                                      const MpckMeansConfig& config,
                                      uint64_t seed,
                                      const std::string& label) {
  Rng fast_rng(seed);
  Rng oracle_rng(seed);
  Result<MpckMeansResult> fast =
      RunMpckMeans(points, constraints, config, &fast_rng);
  Result<MpckMeansResult> oracle = mpck_oracle::OracleRunMpckMeans(
      points, constraints, config, &oracle_rng);
  EXPECT_EQ(fast_rng.NextUint64(), oracle_rng.NextUint64())
      << label << ": Rng stream";
  EXPECT_EQ(fast.ok(), oracle.ok()) << label;
  if (!fast.ok() || !oracle.ok()) {
    EXPECT_EQ(fast.status().code(), oracle.status().code()) << label;
    EXPECT_EQ(fast.status().message(), oracle.status().message()) << label;
    return fast;
  }
  const MpckMeansResult& f = fast.value();
  const MpckMeansResult& o = oracle.value();
  EXPECT_EQ(f.clustering.assignment(), o.clustering.assignment()) << label;
  ExpectSameBits(f.centroids, o.centroids, label + ": centroids");
  ExpectSameBits(f.metric_weights, o.metric_weights, label + ": weights");
  EXPECT_EQ(Bits(f.objective), Bits(o.objective)) << label << ": objective";
  EXPECT_EQ(f.iterations, o.iterations) << label;
  EXPECT_EQ(f.converged, o.converged) << label;
  return fast;
}

std::string Describe(const MpckMeansConfig& config, size_t d) {
  return Format("k=%d d=%zu mode=%d init=%d", config.k, d,
                static_cast<int>(config.metric_mode),
                config.neighborhood_init ? 1 : 0);
}

/// n x d Gaussian blobs around `centers` random centres; the columns in
/// `constant_cols` hold one value for every object (zero variance).
Matrix RandomPoints(size_t n, size_t d, int centers, Rng* rng,
                    const std::vector<size_t>& constant_cols = {}) {
  Matrix means(static_cast<size_t>(centers), d);
  for (size_t c = 0; c < means.rows(); ++c) {
    for (size_t m = 0; m < d; ++m) means.At(c, m) = rng->Uniform(-5.0, 5.0);
  }
  Matrix points(n, d);
  for (size_t i = 0; i < n; ++i) {
    const size_t c = rng->Index(static_cast<size_t>(centers));
    for (size_t m = 0; m < d; ++m) {
      points.At(i, m) = rng->Gaussian(means.At(c, m), 1.0);
    }
  }
  for (size_t m : constant_cols) {
    for (size_t i = 0; i < n; ++i) points.At(i, m) = 0.75;
  }
  return points;
}

/// Random must/cannot pairs. A pair already present with the other type
/// is refused by ConstraintSet; everything else is kept, so transitive
/// conflicts (a~b, b~c, a!c) — inconsistent sets — do occur.
ConstraintSet RandomConstraints(size_t n, size_t count, double must_share,
                                Rng* rng) {
  ConstraintSet out;
  for (size_t c = 0; c < count; ++c) {
    const size_t a = rng->Index(n);
    const size_t b = rng->Index(n);
    if (a == b) continue;
    const ConstraintType type = rng->NextDouble() < must_share
                                    ? ConstraintType::kMustLink
                                    : ConstraintType::kCannotLink;
    (void)out.Add(a, b, type);
  }
  return out;
}

/// All-pairs label constraints among `fraction` of the objects, drawn in
/// random order (the order is the constraint order).
ConstraintSet LabelConstraints(const Dataset& data, double fraction,
                               Rng* rng) {
  const size_t n = data.points().rows();
  std::vector<size_t> order = rng->Permutation(n);
  const size_t labeled =
      std::max<size_t>(2, static_cast<size_t>(fraction * n + 0.5));
  order.resize(labeled);
  return ConstraintSet::FromLabels(data.labels(), order);
}

TEST(MpckOracleTest, AloiLabelConstraintsBitEqual) {
  Rng rng(0xA101);
  int case_index = 0;
  for (size_t set = 0; set < 2; ++set) {
    const Dataset data = MakeAloiK5Like(20140324, set);
    ASSERT_EQ(data.points().rows(), 125u);
    ASSERT_EQ(data.points().cols(), 144u);
    for (double fraction : {0.05, 0.10, 0.20}) {
      const ConstraintSet constraints = LabelConstraints(data, fraction, &rng);
      for (int k = 2; k <= 10; ++k, ++case_index) {
        MpckMeansConfig config;
        config.k = k;
        config.metric_mode = kModes[case_index % 3];
        config.neighborhood_init = (case_index / 3) % 2 == 0;
        ExpectSameRun(data.points(), constraints, config, rng.NextUint64(),
                      Format("set=%zu level=%.2f ", set, fraction) +
                          Describe(config, 144));
      }
    }
  }
}

TEST(MpckOracleTest, EveryModeAndInitOnAloiShape) {
  const Dataset data = MakeAloiK5Like(7, 3);
  Rng rng(0xA102);
  const ConstraintSet constraints = LabelConstraints(data, 0.10, &rng);
  for (MetricMode mode : kModes) {
    for (bool init : {true, false}) {
      MpckMeansConfig config;
      config.k = 5;
      config.metric_mode = mode;
      config.neighborhood_init = init;
      ExpectSameRun(data.points(), constraints, config, rng.NextUint64(),
                    Describe(config, 144));
    }
  }
}

TEST(MpckOracleTest, NonUnitConstraintWeightsOnAloiShape) {
  // Weights whose halves are inexact make every penalty sum's rounding
  // observable in the objective.
  const Dataset data = MakeAloiK5Like(11, 5);
  Rng rng(0xA109);
  const ConstraintSet constraints = LabelConstraints(data, 0.20, &rng);
  for (const auto& [must, cannot] :
       {std::pair{0.3, 1.7}, std::pair{2.5, 0.6}}) {
    for (int k : {2, 6, 10}) {
      for (MetricMode mode : kModes) {
        MpckMeansConfig config;
        config.k = k;
        config.metric_mode = mode;
        config.must_link_weight = must;
        config.cannot_link_weight = cannot;
        ExpectSameRun(data.points(), constraints, config, rng.NextUint64(),
                      Format("must=%.1f cannot=%.1f ", must, cannot) +
                          Describe(config, 144));
      }
    }
  }
}

TEST(MpckOracleTest, ViolatedConstraintsReachTheObjective) {
  // Two far-apart blobs, must-links across them and cannot-links inside
  // them, at weights too small to win: the final clustering violates
  // both kinds, so the objective's penalty sums are pinned too.
  Rng rng(0xA10A);
  for (size_t d : {3u, 9u, 144u}) {
    Matrix points(40, d);
    for (size_t i = 0; i < points.rows(); ++i) {
      for (size_t m = 0; m < d; ++m) {
        points.At(i, m) = rng.Gaussian(i < 20 ? 0.0 : 12.0, 1.0);
      }
    }
    ConstraintSet constraints;
    for (size_t j = 0; j < 6; ++j) {
      ASSERT_TRUE(constraints.AddMustLink(j, 20 + j).ok());
      ASSERT_TRUE(constraints.AddCannotLink(6 + j, 13 + j).ok());
    }
    for (MetricMode mode : kModes) {
      MpckMeansConfig config;
      config.k = 2;
      config.metric_mode = mode;
      config.neighborhood_init = false;
      config.must_link_weight = 0.3;
      config.cannot_link_weight = 0.15;
      Result<MpckMeansResult> fast = ExpectSameRun(
          points, constraints, config, rng.NextUint64(), Describe(config, d));
      ASSERT_TRUE(fast.ok());
      const std::vector<int>& labels = fast.value().clustering.assignment();
      size_t must_violated = 0, cannot_violated = 0;
      for (const Constraint& c : constraints.all()) {
        const bool together = labels[c.a] == labels[c.b];
        if (c.type == ConstraintType::kMustLink && !together) ++must_violated;
        if (c.type == ConstraintType::kCannotLink && together) {
          ++cannot_violated;
        }
      }
      EXPECT_GT(must_violated, 0u) << Describe(config, d);
      EXPECT_GT(cannot_violated, 0u) << Describe(config, d);
    }
  }
}

TEST(MpckOracleTest, RandomConstraintSetsEveryLaneTail) {
  Rng rng(0xA103);
  for (size_t d = 1; d <= 20; ++d) {
    const size_t n = 24 + d;
    const Matrix points = RandomPoints(n, d, 4, &rng);
    for (MetricMode mode : kModes) {
      for (bool init : {true, false}) {
        // Mostly cannot-links like label data, sometimes must-heavy.
        const double must_share = rng.NextDouble() < 0.5 ? 0.2 : 0.6;
        const ConstraintSet constraints =
            RandomConstraints(n, rng.Index(3 * n), must_share, &rng);
        MpckMeansConfig config;
        config.k = 2 + static_cast<int>(rng.Index(5));
        config.metric_mode = mode;
        config.neighborhood_init = init;
        config.must_link_weight = rng.NextDouble() < 0.5 ? 1.0 : 2.5;
        config.cannot_link_weight = rng.NextDouble() < 0.5 ? 1.0 : 0.3;
        ExpectSameRun(points, constraints, config, rng.NextUint64(),
                      Describe(config, d));
      }
    }
  }
}

TEST(MpckOracleTest, InconsistentConstraintsMatchInEitherInit) {
  Rng rng(0xA104);
  const Matrix points = RandomPoints(30, 9, 3, &rng);
  ConstraintSet constraints;
  ASSERT_TRUE(constraints.AddMustLink(0, 1).ok());
  ASSERT_TRUE(constraints.AddMustLink(1, 2).ok());
  ASSERT_TRUE(constraints.AddCannotLink(0, 2).ok());
  ASSERT_TRUE(constraints.AddCannotLink(3, 4).ok());
  for (MetricMode mode : kModes) {
    for (bool init : {true, false}) {
      MpckMeansConfig config;
      config.k = 3;
      config.metric_mode = mode;
      config.neighborhood_init = init;
      Result<MpckMeansResult> fast = ExpectSameRun(
          points, constraints, config, rng.NextUint64(), Describe(config, 9));
      // The must-link closure used for initialization rejects the set;
      // k-means++ initialization runs it with soft penalties.
      EXPECT_EQ(fast.ok(), !init);
    }
  }
}

TEST(MpckOracleTest, ZeroVarianceDimensionsHitTheWeightClamp) {
  Rng rng(0xA105);
  for (size_t d : {5u, 12u, 144u}) {
    const size_t n = 40;
    const Matrix points = RandomPoints(n, d, 3, &rng, {0, d / 2, d - 1});
    const ConstraintSet constraints = RandomConstraints(n, 30, 0.3, &rng);
    for (MetricMode mode :
         {MetricMode::kSingleDiagonal, MetricMode::kPerClusterDiagonal}) {
      MpckMeansConfig config;
      config.k = 3;
      config.metric_mode = mode;
      config.neighborhood_init = false;
      Result<MpckMeansResult> fast = ExpectSameRun(
          points, constraints, config, rng.NextUint64(), Describe(config, d));
      ASSERT_TRUE(fast.ok());
      // A constant column has zero scatter, so its weight is clamped.
      bool clamped = false;
      for (double w : fast.value().metric_weights.data()) {
        clamped = clamped || w == 1e9;
      }
      EXPECT_TRUE(clamped) << Describe(config, d);
    }
  }
}

TEST(MpckOracleTest, EmptyClusterIsReseeded) {
  // Two distinct locations and no constraints: identical objects have
  // identical costs, so after the first assignment at most two of the
  // three clusters are non-empty and the M-step re-seeds the rest.
  Matrix points(16, 6);
  for (size_t i = 0; i < points.rows(); ++i) {
    for (size_t m = 0; m < points.cols(); ++m) {
      points.At(i, m) = i % 2 == 0 ? 0.25 * static_cast<double>(m) : -3.0;
    }
  }
  Rng rng(0xA106);
  for (MetricMode mode : kModes) {
    for (bool init : {true, false}) {
      MpckMeansConfig config;
      config.k = 3;
      config.metric_mode = mode;
      config.neighborhood_init = init;
      ExpectSameRun(points, ConstraintSet(), config, rng.NextUint64(),
                    Describe(config, 6));
    }
  }
}

TEST(MpckOracleTest, KEqualsN) {
  Rng rng(0xA107);
  for (size_t d : {3u, 8u, 17u}) {
    const size_t n = 12;
    const Matrix points = RandomPoints(n, d, 3, &rng);
    const ConstraintSet constraints = RandomConstraints(n, 10, 0.3, &rng);
    for (MetricMode mode : kModes) {
      for (bool init : {true, false}) {
        MpckMeansConfig config;
        config.k = static_cast<int>(n);
        config.metric_mode = mode;
        config.neighborhood_init = init;
        ExpectSameRun(points, constraints, config, rng.NextUint64(),
                      Describe(config, d));
      }
    }
  }
}

TEST(MpckOracleTest, RejectedInputsReturnEqualStatuses) {
  Rng rng(0xA108);
  const Matrix points = RandomPoints(10, 4, 2, &rng);
  ConstraintSet in_range;
  ASSERT_TRUE(in_range.AddMustLink(0, 1).ok());
  ConstraintSet out_of_range;
  ASSERT_TRUE(out_of_range.AddCannotLink(2, 10).ok());

  MpckMeansConfig zero_k;
  zero_k.k = 0;
  MpckMeansConfig too_many;
  too_many.k = 11;
  MpckMeansConfig no_iters;
  no_iters.max_iters = 0;
  for (const MpckMeansConfig& config : {zero_k, too_many, no_iters}) {
    Result<MpckMeansResult> fast = ExpectSameRun(
        points, in_range, config, rng.NextUint64(), Describe(config, 4));
    EXPECT_EQ(fast.status().code(), StatusCode::kInvalidArgument);
  }
  Result<MpckMeansResult> fast = ExpectSameRun(
      points, out_of_range, MpckMeansConfig(), rng.NextUint64(), "range");
  EXPECT_EQ(fast.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cvcp
