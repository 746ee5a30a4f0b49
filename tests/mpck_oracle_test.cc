// Differential oracle suite for MPCKMeans. RunMpckMeans memoizes each
// distance under per-cluster versions, re-estimates only the clusters
// whose member set changed, batches distances through the weighted
// x4/rows kernels, assigns in one pass over each object's partners, and
// runs from a setup prepared once per (points, constraints) pair whose
// distances iteration 0 starts from; OracleRunMpckMeans
// (tests/mpck_oracle.h) is the implementation it replaced, which builds
// everything per run. Rng-driven instances assert bit equality of the
// assignment, centroids, metric weights, objective, iteration count,
// `converged` and the caller's Rng stream, and equal statuses for
// rejected inputs. Every family also runs a whole k grid from one
// prepared setup, as the engine's grid loops do, and pins each k against
// the oracle run from the same seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
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

/// Pins a library run against the oracle run from the same seed: every
/// output, and the Rng streams the two runs leave behind.
void ExpectSameResult(const Result<MpckMeansResult>& fast, Rng* fast_rng,
                      const Result<MpckMeansResult>& oracle, Rng* oracle_rng,
                      const std::string& label) {
  EXPECT_EQ(fast_rng->NextUint64(), oracle_rng->NextUint64())
      << label << ": Rng stream";
  EXPECT_EQ(fast.ok(), oracle.ok()) << label;
  if (!fast.ok() || !oracle.ok()) {
    EXPECT_EQ(fast.status().code(), oracle.status().code()) << label;
    EXPECT_EQ(fast.status().message(), oracle.status().message()) << label;
    return;
  }
  const MpckMeansResult& f = fast.value();
  const MpckMeansResult& o = oracle.value();
  EXPECT_EQ(f.clustering.assignment(), o.clustering.assignment()) << label;
  ExpectSameBits(f.centroids, o.centroids, label + ": centroids");
  ExpectSameBits(f.metric_weights, o.metric_weights, label + ": weights");
  EXPECT_EQ(Bits(f.objective), Bits(o.objective)) << label << ": objective";
  EXPECT_EQ(f.iterations, o.iterations) << label;
  EXPECT_EQ(f.converged, o.converged) << label;
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
  ExpectSameResult(fast, &fast_rng, oracle, &oracle_rng, label);
  return fast;
}

std::string Describe(const MpckMeansConfig& config, size_t d) {
  return Format("k=%d d=%zu mode=%d init=%d", config.k, d,
                static_cast<int>(config.metric_mode),
                config.neighborhood_init ? 1 : 0);
}

/// Runs every k of `ks`, in that order, from one prepared setup — as a
/// CVCP grid does with one fold's supervision — and pins each against
/// the oracle run from the same seed (`seed + k`). `config.k` is ignored.
/// Returns how many runs succeeded.
size_t ExpectSameGrid(const Matrix& points, const ConstraintSet& constraints,
                      MpckMeansConfig config, const std::vector<int>& ks,
                      uint64_t seed, const std::string& label) {
  const std::shared_ptr<const MpckSetup> setup =
      PrepareMpckMeans(points, constraints);
  size_t ok = 0;
  for (int k : ks) {
    config.k = k;
    const uint64_t run_seed = seed + static_cast<uint64_t>(k);
    Rng fast_rng(run_seed);
    Rng oracle_rng(run_seed);
    const Result<MpckMeansResult> fast =
        RunMpckMeans(*setup, config, &fast_rng);
    const Result<MpckMeansResult> oracle = mpck_oracle::OracleRunMpckMeans(
        points, constraints, config, &oracle_rng);
    ExpectSameResult(fast, &fast_rng, oracle, &oracle_rng,
                     label + " grid " + Describe(config, points.cols()) +
                         Format(" max_iters=%d", config.max_iters));
    if (fast.ok()) ++ok;
  }
  return ok;
}

/// lo, lo + 1, ..., hi.
std::vector<int> KRange(int lo, int hi) {
  std::vector<int> ks;
  for (int k = lo; k <= hi; ++k) ks.push_back(k);
  return ks;
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
  int grid_index = 0;
  for (size_t set = 0; set < 2; ++set) {
    const Dataset data = MakeAloiK5Like(20140324, set);
    ASSERT_EQ(data.points().rows(), 125u);
    ASSERT_EQ(data.points().cols(), 144u);
    for (double fraction : {0.05, 0.10, 0.20}) {
      const ConstraintSet constraints = LabelConstraints(data, fraction, &rng);
      // The paper's k grid from one setup, as one CVCP fold runs it.
      MpckMeansConfig grid_config;
      grid_config.metric_mode = kModes[grid_index % 3];
      grid_config.neighborhood_init = grid_index < 3;
      ++grid_index;
      EXPECT_EQ(ExpectSameGrid(data.points(), constraints, grid_config,
                               KRange(2, 10), 0xB101 + grid_index,
                               Format("set=%zu level=%.2f", set, fraction)),
                9u);
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
  // Each run is also cut after 1, 2 and 3 iterations, and rerun with
  // tol = 0, so the state after every early M-step is pinned too, not
  // only the converged one.
  const Dataset data = MakeAloiK5Like(7, 3);
  Rng rng(0xA102);
  const ConstraintSet constraints = LabelConstraints(data, 0.10, &rng);
  for (MetricMode mode : kModes) {
    for (bool init : {true, false}) {
      const uint64_t seed = rng.NextUint64();
      for (int max_iters : {50, 1, 2, 3}) {
        for (double tol : {1e-5, 0.0}) {
          MpckMeansConfig config;
          config.k = 5;
          config.metric_mode = mode;
          config.neighborhood_init = init;
          config.max_iters = max_iters;
          config.tol = tol;
          Result<MpckMeansResult> fast =
              ExpectSameRun(data.points(), constraints, config, seed,
                            Describe(config, 144) +
                                Format(" max_iters=%d tol=%g", max_iters, tol));
          ASSERT_TRUE(fast.ok());
          EXPECT_LE(fast.value().iterations, max_iters);
        }
        // The grid cut after the first pass pins the state iteration 0
        // leaves from the seeding's distances.
        MpckMeansConfig grid_config;
        grid_config.metric_mode = mode;
        grid_config.neighborhood_init = init;
        grid_config.max_iters = max_iters;
        grid_config.tol = 0.0;
        EXPECT_EQ(ExpectSameGrid(data.points(), constraints, grid_config,
                                 KRange(2, 10), seed, "every mode"),
                  9u);
      }
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
    for (MetricMode mode : kModes) {
      MpckMeansConfig grid_config;
      grid_config.metric_mode = mode;
      grid_config.must_link_weight = must;
      grid_config.cannot_link_weight = cannot;
      ExpectSameGrid(data.points(), constraints, grid_config, {2, 6, 10},
                     0xB103, Format("must=%.1f cannot=%.1f", must, cannot));
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
      for (bool init : {false, true}) {
        MpckMeansConfig grid_config = config;
        grid_config.neighborhood_init = init;
        EXPECT_EQ(ExpectSameGrid(points, constraints, grid_config,
                                 KRange(1, 4), 0xB104, "violated"),
                  4u);
      }
    }
  }
}

/// Assignments after every pass of one run, read from runs cut after
/// 1..passes iterations; stops early when the run converges.
std::vector<std::vector<int>> AssignmentsPerPass(
    const Matrix& points, const ConstraintSet& constraints,
    MpckMeansConfig config, uint64_t seed, int passes) {
  std::vector<std::vector<int>> out;
  for (int t = 1; t <= passes; ++t) {
    config.max_iters = t;
    Rng rng(seed);
    Result<MpckMeansResult> run =
        RunMpckMeans(points, constraints, config, &rng);
    if (!run.ok() || run.value().iterations < t) break;
    out.push_back(run.value().clustering.assignment());
  }
  return out;
}

TEST(MpckOracleTest, OneBoundaryObjectMovesBetweenMSteps) {
  // Two tight blobs A (x = 0) and B (x = 6), one object b between them
  // must-linked into B, and a far blob C. The first pass puts b in A's
  // cluster; the second moves b alone into B's. So the M-step after it
  // re-estimates only A's and B's clusters (all rows under
  // kSingleDiagonal), and C's cluster keeps its memo.
  Rng rng(3);
  const size_t per = 10;
  const size_t b = 3 * per;
  Matrix points(3 * per + 1, 3);
  const double center_x[3] = {0.0, 6.0, 3.0};
  const double center_y[3] = {0.0, 0.0, 9.0};
  for (size_t blob = 0; blob < 3; ++blob) {
    for (size_t j = 0; j < per; ++j) {
      const size_t i = blob * per + j;
      points.At(i, 0) = rng.Gaussian(center_x[blob], 0.2);
      points.At(i, 1) = rng.Gaussian(center_y[blob], 0.2);
      points.At(i, 2) = rng.Gaussian(0.0, 0.2);
    }
  }
  points.At(b, 0) = 3.0;
  points.At(b, 1) = 0.3;
  points.At(b, 2) = 0.0;
  ConstraintSet constraints;
  ASSERT_TRUE(constraints.AddMustLink(b, per + 5).ok());
  ASSERT_TRUE(constraints.AddCannotLink(0, 2 * per + 5).ok());
  for (MetricMode mode : kModes) {
    MpckMeansConfig config;
    config.k = 3;
    config.metric_mode = mode;
    config.neighborhood_init = false;
    config.tol = 0.0;
    const uint64_t seed = 1;
    for (int max_iters : {1, 2, 50}) {
      MpckMeansConfig cut = config;
      cut.max_iters = max_iters;
      ExpectSameRun(points, constraints, cut, seed,
                    Describe(cut, 3) + Format(" max_iters=%d", max_iters));
    }
    // The input does what the comment says: after pass 1 each blob is
    // one cluster and b sits with A; pass 2 moves b, and only b, to B.
    const std::vector<std::vector<int>> passes =
        AssignmentsPerPass(points, constraints, config, seed, 2);
    ASSERT_EQ(passes.size(), 2u) << Describe(config, 3);
    const int a = passes[0][0], bb = passes[0][per], c = passes[0][2 * per];
    EXPECT_TRUE(a != bb && bb != c && a != c) << Describe(config, 3);
    for (size_t i = 0; i < b; ++i) {
      EXPECT_EQ(passes[0][i], i < per ? a : i < 2 * per ? bb : c) << i;
      EXPECT_EQ(passes[1][i], passes[0][i]) << Describe(config, 3) << i;
    }
    EXPECT_EQ(passes[0][b], a) << Describe(config, 3);
    EXPECT_EQ(passes[1][b], bb) << Describe(config, 3);
    for (int max_iters : {1, 2, 50}) {
      MpckMeansConfig grid_config = config;
      grid_config.max_iters = max_iters;
      EXPECT_EQ(ExpectSameGrid(points, constraints, grid_config, KRange(1, 5),
                               seed, "boundary"),
                5u);
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
        ExpectSameGrid(points, constraints, config, {1, 2, 3, 5, 8}, 0xB106 + d,
                       "random");
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
  // One setup records the closure's failure and still serves runs that
  // never read it: every k fails with neighborhood init, none without.
  const std::shared_ptr<const MpckSetup> setup =
      PrepareMpckMeans(points, constraints);
  for (MetricMode mode : kModes) {
    for (bool init : {true, false, true}) {
      MpckMeansConfig config;
      config.metric_mode = mode;
      config.neighborhood_init = init;
      for (int k = 1; k <= 6; ++k) {
        config.k = k;
        Rng fast_rng(0xB107 + k);
        Rng oracle_rng(0xB107 + k);
        const Result<MpckMeansResult> fast =
            RunMpckMeans(*setup, config, &fast_rng);
        ExpectSameResult(fast, &fast_rng,
                         mpck_oracle::OracleRunMpckMeans(points, constraints,
                                                         config, &oracle_rng),
                         &oracle_rng, "shared setup " + Describe(config, 9));
        if (init) {
          EXPECT_EQ(fast.status().code(),
                    StatusCode::kInconsistentConstraints);
        } else {
          EXPECT_TRUE(fast.ok()) << Describe(config, 9);
        }
      }
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
      EXPECT_EQ(ExpectSameGrid(points, constraints, config, KRange(1, 5),
                               0xB108, "zero variance"),
                5u);
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
      EXPECT_EQ(ExpectSameGrid(points, ConstraintSet(), config, KRange(1, 6),
                               0xB109, "empty cluster"),
                6u);
    }
  }
}

TEST(MpckOracleTest, EmptyClusterReseededOnConsecutiveMSteps) {
  // Must-link neighborhoods P (mean x = 0) and Q, R (both with mean
  // (10, 0)) seed the three centroids, so Q's and R's coincide and the
  // higher-indexed one loses every tie of the first pass. Heavy
  // must-links keep the neighborhoods out of the re-seeded cluster, and
  // free objects between P and Q keep the run moving, so the same
  // cluster is empty, and re-seeded, at M-steps 1, 2 and 3.
  Rng rng(103);
  const size_t free_objects = 8;
  Matrix points(7 + free_objects, 2);
  const double fixed[7][2] = {{-1, 0}, {0, 0},  {1, 0}, {9, 0},
                              {11, 0}, {10, -1}, {10, 1}};
  for (size_t i = 0; i < 7; ++i) {
    points.At(i, 0) = fixed[i][0];
    points.At(i, 1) = fixed[i][1];
  }
  for (size_t i = 7; i < points.rows(); ++i) {
    points.At(i, 0) = rng.Uniform(1.0, 9.0);
    points.At(i, 1) = rng.Uniform(-1.0, 1.0);
  }
  ConstraintSet constraints;
  ASSERT_TRUE(constraints.AddMustLink(0, 1).ok());
  ASSERT_TRUE(constraints.AddMustLink(1, 2).ok());
  ASSERT_TRUE(constraints.AddMustLink(3, 4).ok());
  ASSERT_TRUE(constraints.AddMustLink(5, 6).ok());
  for (MetricMode mode : kModes) {
    MpckMeansConfig config;
    config.k = 3;
    config.metric_mode = mode;
    config.tol = 0.0;
    config.must_link_weight = 10.0;
    const uint64_t seed = 2;
    for (int max_iters : {1, 2, 3, 4, 50}) {
      MpckMeansConfig cut = config;
      cut.max_iters = max_iters;
      ExpectSameRun(points, constraints, cut, seed,
                    Describe(cut, 2) + Format(" max_iters=%d", max_iters));
    }
    const std::vector<std::vector<int>> passes =
        AssignmentsPerPass(points, constraints, config, seed, 3);
    ASSERT_EQ(passes.size(), 3u) << Describe(config, 2);
    for (const std::vector<int>& labels : passes) {
      EXPECT_EQ(std::count(labels.begin(), labels.end(), 2), 0)
          << Describe(config, 2);
    }
    for (int max_iters : {1, 3, 50}) {
      MpckMeansConfig grid_config = config;
      grid_config.max_iters = max_iters;
      EXPECT_EQ(ExpectSameGrid(points, constraints, grid_config, KRange(1, 6),
                               seed, "consecutive re-seeds"),
                6u);
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
        const uint64_t seed = rng.NextUint64();
        const Result<MpckMeansResult> fast = ExpectSameRun(
            points, constraints, config, seed, Describe(config, d));
        // k = 1 .. n from one setup; a random set may be inconsistent,
        // and then every neighborhood-init run fails alike.
        EXPECT_EQ(ExpectSameGrid(points, constraints, config,
                                 KRange(1, static_cast<int>(n)), seed, "k=n"),
                  fast.ok() ? n : 0u);
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

  // From one setup per constraint set: a config error wins over the
  // index error, which wins over everything a valid config would do.
  MpckMeansConfig valid;
  MpckMeansConfig no_init;
  no_init.neighborhood_init = false;
  for (const ConstraintSet* constraints : {&in_range, &out_of_range}) {
    const std::shared_ptr<const MpckSetup> setup =
        PrepareMpckMeans(points, *constraints);
    for (const MpckMeansConfig& config :
         {zero_k, too_many, no_iters, valid, no_init}) {
      const uint64_t seed = rng.NextUint64();
      Rng fast_rng(seed);
      Rng oracle_rng(seed);
      const Result<MpckMeansResult> shared =
          RunMpckMeans(*setup, config, &fast_rng);
      ExpectSameResult(shared, &fast_rng,
                       mpck_oracle::OracleRunMpckMeans(points, *constraints,
                                                       config, &oracle_rng),
                       &oracle_rng, "shared setup " + Describe(config, 4));
      const bool config_error =
          config.k < 1 || config.k > 10 || config.max_iters < 1;
      const bool range_error =
          shared.status().message().find("beyond dataset size") !=
          std::string::npos;
      EXPECT_EQ(range_error, !config_error && constraints == &out_of_range)
          << shared.status().message();
      EXPECT_EQ(shared.ok(), !config_error && constraints == &in_range)
          << shared.status().message();
    }
  }
}

TEST(MpckOracleTest, FirstPassTiePinsTheSeededColumnBits) {
  // Object T = (2, 0) is exactly as far (4) from the neighborhood mean
  // (0, 0) as from P = (4, 0), which D^2 sampling draws with probability
  // 16/22 as the second centroid. P's column is the last one seeded, so
  // the first pass measures it, while the mean's column comes from the
  // setup; the pass breaks the tie toward the lower cluster index. One
  // ulp more in the installed column flips T, so runs that draw P pin
  // its bits.
  const Matrix points = Matrix::FromRows(
      {{-1, 0}, {1, 0}, {0, 0}, {0, 0}, {0, 0}, {4, 0}, {2, 0}});
  ConstraintSet constraints;
  ASSERT_TRUE(constraints.AddMustLink(0, 1).ok());
  int ties = 0;
  for (MetricMode mode : kModes) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      MpckMeansConfig config;
      config.metric_mode = mode;
      config.tol = 0.0;
      for (int max_iters : {1, 50}) {
        config.max_iters = max_iters;
        EXPECT_EQ(ExpectSameGrid(points, constraints, config, {1, 2, 3},
                                 seed, "tie"),
                  3u);
      }
      config.k = 2;
      config.max_iters = 1;
      Rng rng(seed + 2);  // ExpectSameGrid's seed for k = 2
      const Result<MpckMeansResult> first =
          RunMpckMeans(points, constraints, config, &rng);
      ASSERT_TRUE(first.ok());
      const std::vector<int>& labels = first.value().clustering.assignment();
      if (labels[6] == labels[0] && labels[5] != labels[0]) ++ties;
    }
  }
  EXPECT_GT(ties, 0);
}

TEST(MpckOracleTest, SharedSetupCoversEverySeedingShape) {
  // Three must-link neighborhoods (sizes 4, 3, 2) plus cannot-links, a
  // set with cannot-links only, and no constraints at all; every k from
  // 1 to n, in ascending and in descending order from one setup each. So
  // k <= 3 takes every centroid from a neighborhood (no D^2 pass), k > 3
  // tops up with D^2 sampling, and the sets without must-links seed
  // wholly by D^2, under every metric mode and both initializations.
  Rng rng(0xA10B);
  const size_t n = 20;
  const Matrix points = RandomPoints(n, 11, 4, &rng);
  ConstraintSet hoods;
  for (const auto& [a, b] : std::vector<std::pair<size_t, size_t>>{
           {0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {7, 8}}) {
    ASSERT_TRUE(hoods.AddMustLink(a, b).ok());
  }
  ASSERT_TRUE(hoods.AddCannotLink(0, 4).ok());
  ASSERT_TRUE(hoods.AddCannotLink(6, 9).ok());
  ASSERT_TRUE(hoods.AddCannotLink(10, 11).ok());
  ConstraintSet cannot_only;
  for (size_t i = 0; i + 3 < n; i += 3) {
    ASSERT_TRUE(cannot_only.AddCannotLink(i, i + 3).ok());
  }
  ConstraintSet none;
  const std::vector<int> up = KRange(1, static_cast<int>(n));
  const std::vector<int> down(up.rbegin(), up.rend());
  for (const ConstraintSet* constraints : {&hoods, &cannot_only, &none}) {
    const ConstraintSet& set = *constraints;
    for (MetricMode mode : kModes) {
      for (bool init : {true, false}) {
        MpckMeansConfig config;
        config.metric_mode = mode;
        config.neighborhood_init = init;
        for (int max_iters : {1, 50}) {
          config.max_iters = max_iters;
          const std::string label = Format("constraints=%zu", set.size());
          EXPECT_EQ(ExpectSameGrid(points, set, config, up, 0xB10B, label), n);
          EXPECT_EQ(ExpectSameGrid(points, set, config, down, 0xB10B, label),
                    n);
        }
      }
    }
  }
}

}  // namespace
}  // namespace cvcp
