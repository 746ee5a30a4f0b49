#include "common/distance.h"

#include <gtest/gtest.h>

#include <cmath>

namespace cvcp {
namespace {

const std::vector<double> kA = {0.0, 0.0, 0.0};
const std::vector<double> kB = {1.0, 2.0, 2.0};

TEST(DistanceTest, Euclidean) {
  EXPECT_DOUBLE_EQ(EuclideanDistance(kA, kB), 3.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance(kA, kA), 0.0);
}

TEST(DistanceTest, SquaredEuclidean) {
  EXPECT_DOUBLE_EQ(SquaredEuclideanDistance(kA, kB), 9.0);
}

TEST(DistanceTest, Manhattan) {
  EXPECT_DOUBLE_EQ(ManhattanDistance(kA, kB), 5.0);
}

TEST(DistanceTest, Cosine) {
  std::vector<double> x = {1.0, 0.0};
  std::vector<double> y = {0.0, 1.0};
  std::vector<double> z = {2.0, 0.0};
  EXPECT_DOUBLE_EQ(CosineDistance(x, y), 1.0);        // orthogonal
  EXPECT_NEAR(CosineDistance(x, z), 0.0, 1e-12);      // parallel
  std::vector<double> neg = {-1.0, 0.0};
  EXPECT_NEAR(CosineDistance(x, neg), 2.0, 1e-12);    // opposite
}

TEST(DistanceTest, CosineZeroVectorConvention) {
  std::vector<double> zero = {0.0, 0.0};
  std::vector<double> x = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(CosineDistance(zero, x), 1.0);
}

TEST(DistanceTest, WeightedSquaredEuclidean) {
  std::vector<double> w = {2.0, 0.5, 1.0};
  // 2*(1)^2 + 0.5*(2)^2 + 1*(2)^2 = 2 + 2 + 4 = 8.
  EXPECT_DOUBLE_EQ(WeightedSquaredEuclidean(kA, kB, w), 8.0);
  // All-ones weights reduce to squared Euclidean.
  std::vector<double> ones = {1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(WeightedSquaredEuclidean(kA, kB, ones),
                   SquaredEuclideanDistance(kA, kB));
}

TEST(DistanceTest, DispatchMatchesDirectCalls) {
  EXPECT_DOUBLE_EQ(Distance(kA, kB, Metric::kEuclidean),
                   EuclideanDistance(kA, kB));
  EXPECT_DOUBLE_EQ(Distance(kA, kB, Metric::kSquaredEuclidean),
                   SquaredEuclideanDistance(kA, kB));
  EXPECT_DOUBLE_EQ(Distance(kA, kB, Metric::kManhattan),
                   ManhattanDistance(kA, kB));
  EXPECT_DOUBLE_EQ(Distance(kA, kB, Metric::kCosine), CosineDistance(kA, kB));
}

// RAII guard so a failing kernel test can't leak the process-wide
// default into unrelated tests. Saves and restores the policy itself
// (not the shim's bool): restoring via SetUnrolledDistanceKernels(false)
// would force kFixedLane and clobber an env-selected scalar-legacy
// default when this binary runs under CVCP_DISTANCE_KERNEL.
class UnrolledKernelGuard {
 public:
  explicit UnrolledKernelGuard(bool enabled)
      : previous_(DefaultDistanceKernelPolicy()) {
    SetUnrolledDistanceKernels(enabled);
  }
  ~UnrolledKernelGuard() { SetDefaultDistanceKernelPolicy(previous_); }

 private:
  DistanceKernelPolicy previous_;
};

TEST(DistanceKernelTest, ScalarIsTheDefault) {
  EXPECT_FALSE(UnrolledDistanceKernelsEnabled());
}

TEST(DistanceKernelTest, UnrolledMatchesScalarWithinRounding) {
  std::vector<double> a, b, w;
  for (int i = 0; i < 19; ++i) {  // odd length exercises the tail loop
    a.push_back(0.37 * i - 2.1);
    b.push_back(1.0 / (i + 1.0));
    w.push_back(0.5 + 0.1 * i);
  }
  const double sq_scalar = SquaredEuclideanDistance(a, b);
  const double man_scalar = ManhattanDistance(a, b);
  const double wsq_scalar = WeightedSquaredEuclidean(a, b, w);
  {
    UnrolledKernelGuard guard(true);
    EXPECT_TRUE(UnrolledDistanceKernelsEnabled());
    // The unrolled kernels reassociate the sum: equal up to rounding, not
    // necessarily bitwise (which is why they are opt-in).
    EXPECT_NEAR(SquaredEuclideanDistance(a, b), sq_scalar,
                1e-12 * std::abs(sq_scalar));
    EXPECT_NEAR(ManhattanDistance(a, b), man_scalar,
                1e-12 * std::abs(man_scalar));
    EXPECT_NEAR(WeightedSquaredEuclidean(a, b, w), wsq_scalar,
                1e-12 * std::abs(wsq_scalar));
  }
  // Guard restored the bitwise-compat default: scalar results again.
  EXPECT_FALSE(UnrolledDistanceKernelsEnabled());
  EXPECT_EQ(SquaredEuclideanDistance(a, b), sq_scalar);
}

TEST(DistanceKernelTest, UnrolledHandlesShortAndEmptyInputs) {
  UnrolledKernelGuard guard(true);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(SquaredEuclideanDistance(empty, empty), 0.0);
  std::vector<double> a = {1.0, 2.0, 3.0};  // shorter than the unroll width
  std::vector<double> b = {0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(SquaredEuclideanDistance(a, b), 14.0);
  EXPECT_DOUBLE_EQ(ManhattanDistance(a, b), 6.0);
}

TEST(DistanceMatrixTest, MatchesDirectComputation) {
  Matrix points = Matrix::FromRows({{0, 0}, {3, 4}, {6, 8}, {-1, 0}});
  DistanceMatrix dm = DistanceMatrix::Compute(points, Metric::kEuclidean);
  EXPECT_EQ(dm.n(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(dm(i, j),
                       EuclideanDistance(points.Row(i), points.Row(j)))
          << i << "," << j;
    }
  }
}

TEST(DistanceMatrixTest, SymmetricAndZeroDiagonal) {
  Matrix points = Matrix::FromRows({{1, 2}, {5, 5}, {-3, 0}});
  DistanceMatrix dm = DistanceMatrix::Compute(points, Metric::kManhattan);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(dm(i, i), 0.0);
    for (size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(dm(i, j), dm(j, i));
  }
}

TEST(DistanceMatrixTest, CondensedIndexExhaustiveSmallN) {
  // The condensed layout enumerates pairs (i, j), i < j, row-major: the
  // index must count 0, 1, 2, ... in that order and be order-insensitive.
  // Parallel Compute writes through exactly this addressing, so pin it.
  for (size_t n = 2; n <= 9; ++n) {
    DistanceMatrix dm = DistanceMatrix::Compute(
        Matrix(n, 1), Metric::kEuclidean);  // layout depends only on n
    ASSERT_EQ(dm.n(), n);
    size_t expected = 0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j, ++expected) {
        EXPECT_EQ(dm.CondensedIndex(i, j), expected)
            << "n=" << n << " (" << i << "," << j << ")";
        EXPECT_EQ(dm.CondensedIndex(j, i), expected)
            << "n=" << n << " (" << j << "," << i << ")";
      }
    }
    // Exactly n*(n-1)/2 slots, so the last pair hits the final index.
    EXPECT_EQ(expected, n * (n - 1) / 2);
  }
}

TEST(DistanceMatrixTest, ParallelComputeBitIdenticalToSerial) {
  // Deterministic but irregular points so every entry is distinct.
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < 37; ++i) {
    const double x = static_cast<double>(i);
    rows.push_back({x * 1.7 - 3.0, x * x * 0.013, 31.0 - x});
  }
  Matrix points = Matrix::FromRows(rows);
  DistanceMatrix serial =
      DistanceMatrix::Compute(points, Metric::kEuclidean,
                              ExecutionContext::Serial());
  for (int threads : {2, 3, 8}) {
    ExecutionContext exec;
    exec.threads = threads;
    DistanceMatrix parallel =
        DistanceMatrix::Compute(points, Metric::kEuclidean, exec);
    ASSERT_EQ(parallel.n(), serial.n());
    for (size_t i = 0; i < serial.n(); ++i) {
      for (size_t j = 0; j < serial.n(); ++j) {
        EXPECT_EQ(parallel(i, j), serial(i, j))
            << "(" << i << "," << j << "), threads " << threads;
      }
    }
  }
}

TEST(DistanceMatrixTest, TinyInputs) {
  Matrix one = Matrix::FromRows({{1, 1}});
  DistanceMatrix dm1 = DistanceMatrix::Compute(one, Metric::kEuclidean);
  EXPECT_EQ(dm1.n(), 1u);
  EXPECT_DOUBLE_EQ(dm1(0, 0), 0.0);

  DistanceMatrix dm0 = DistanceMatrix::Compute(Matrix(), Metric::kEuclidean);
  EXPECT_EQ(dm0.n(), 0u);
}

}  // namespace
}  // namespace cvcp
