// Pinning tests for the distance-kernel layer (common/distance_kernels.h):
//
//  * the fixed-lane contract — the dispatched native table (AVX2 when
//    the CPU has it) must be *bitwise* equal to the portable scalar
//    reference for every kernel, at every vector length around the lane
//    width (0..2*width+3 pins the tail handling);
//  * the strided x4 batch must be bitwise equal to four single-pair
//    calls, packed or padded stride; the weighted gathered x4 and
//    weighted rows batches bitwise equal to the portable single-pair
//    weighted kernel;
//  * the row-update table (the MPCKMeans M-step loops): dispatched
//    bitwise equal to portable;
//  * fixed-lane vs a left-to-right sum (the pre-SIMD order): equal
//    within rounding (they reassociate), never relied on for bit
//    equality;
//  * the tiled DistanceMatrix::Compute against the untiled serial row
//    sweep below: bitwise, for ragged multi-tile sizes and any thread
//    count.

#include "common/distance_kernels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/distance.h"
#include "common/matrix.h"
#include "common/parallel.h"

namespace cvcp {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Deterministic, irregular values: no two entries equal, mixed signs and
// magnitudes so reassociation would actually change low bits.
std::vector<double> Irregular(size_t n, double seed) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) + seed;
    v[i] = std::sin(x * 12.9898) * 43758.5453 - std::floor(x * 0.37);
  }
  return v;
}

TEST(DistanceKernelsFixedLane, NativeBitwiseEqualsPortableAllLengths) {
  const DistanceKernels& native = GetDistanceKernels();
  const DistanceKernels& portable = FixedLaneKernelsPortable();
  for (size_t n = 0; n <= 2 * kFixedLaneWidth + 3; ++n) {
    const std::vector<double> a = Irregular(n, 0.3);
    const std::vector<double> b = Irregular(n, 1.7);
    const std::vector<double> w = Irregular(n, 2.9);
    EXPECT_EQ(Bits(native.squared_euclidean(a.data(), b.data(), n)),
              Bits(portable.squared_euclidean(a.data(), b.data(), n)))
        << "squared_euclidean n=" << n;
    EXPECT_EQ(
        Bits(native.weighted_squared_euclidean(a.data(), b.data(), w.data(),
                                               n)),
        Bits(portable.weighted_squared_euclidean(a.data(), b.data(), w.data(),
                                                 n)))
        << "weighted n=" << n;
  }
}

TEST(DistanceKernelsFixedLane, BatchX4BitwiseEqualsFourSingleCalls) {
  for (const DistanceKernels* table :
       {&GetDistanceKernels(), &FixedLaneKernelsPortable()}) {
    ASSERT_NE(table->squared_euclidean_x4, nullptr);
    for (size_t n = 0; n <= 2 * kFixedLaneWidth + 3; ++n) {
      // Packed (stride == n) and padded (stride > n) column layouts.
      for (size_t stride : {n, n + 3}) {
        const std::vector<double> a = Irregular(n, 0.5);
        const std::vector<double> b = Irregular(4 * stride + n, 4.2);
        double batch[4];
        table->squared_euclidean_x4(a.data(), b.data(), stride, n, batch);
        for (size_t k = 0; k < 4; ++k) {
          EXPECT_EQ(Bits(batch[k]), Bits(table->squared_euclidean(
                                        a.data(), b.data() + k * stride, n)))
              << "n=" << n << " stride=" << stride << " k=" << k;
        }
      }
    }
  }
}

TEST(DistanceKernelsFixedLane, WeightedX4BitwiseEqualsPortableSingle) {
  const DistanceKernels& portable = FixedLaneKernelsPortable();
  for (const DistanceKernels* table :
       {&GetDistanceKernels(), &FixedLaneKernelsPortable()}) {
    for (size_t n = 0; n <= 2 * kFixedLaneWidth + 3; ++n) {
      // Four rows in separate allocations, three of them at an offset:
      // unrelated addresses, no common stride.
      std::vector<std::vector<double>> owned;
      for (size_t k = 0; k < 4; ++k) {
        owned.push_back(Irregular(n + 3, 3.1 + static_cast<double>(k)));
      }
      const double* rows[4] = {owned[2].data(), owned[0].data() + 1,
                               owned[3].data() + 3, owned[1].data()};
      const std::vector<double> b = Irregular(n, 0.9);
      const std::vector<double> w = Irregular(n, 6.4);
      double batch[4];
      table->weighted_squared_euclidean_x4(rows, b.data(), w.data(), n,
                                           batch);
      for (size_t k = 0; k < 4; ++k) {
        EXPECT_EQ(Bits(batch[k]),
                  Bits(portable.weighted_squared_euclidean(rows[k], b.data(),
                                                           w.data(), n)))
            << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(DistanceKernelsFixedLane, WeightedRowsBitwiseEqualsPortableSingle) {
  const DistanceKernels& portable = FixedLaneKernelsPortable();
  for (const DistanceKernels* table :
       {&GetDistanceKernels(), &FixedLaneKernelsPortable()}) {
    for (size_t n = 0; n <= 2 * kFixedLaneWidth + 3; ++n) {
      const std::vector<double> a = Irregular(n, 0.4);
      const std::vector<double> b = Irregular(n + 1, 2.2);
      for (size_t rows = 1; rows <= 10; ++rows) {
        // Weight rows padded past n, as a k x d matrix with d > n would be.
        const size_t stride = n + 2;
        const std::vector<double> w = Irregular(rows * stride, 8.8);
        std::vector<double> out(rows);
        table->weighted_squared_euclidean_rows(a.data(), b.data() + 1,
                                               w.data(), stride, rows, n,
                                               out.data());
        for (size_t r = 0; r < rows; ++r) {
          EXPECT_EQ(Bits(out[r]), Bits(portable.weighted_squared_euclidean(
                                      a.data(), b.data() + 1,
                                      w.data() + r * stride, n)))
              << "n=" << n << " rows=" << rows << " r=" << r;
        }
      }
    }
  }
}

TEST(DistanceKernelsRows, NativeBitwiseEqualsPortable) {
  const RowKernels& native = GetRowKernels();
  const RowKernels& portable = RowKernelsPortable();
  // Special values ride along: signed zeros, a NaN, and magnitudes on
  // both sides of the clamp bounds.
  auto special = [](std::vector<double> v) {
    if (v.size() > 2) v[1] = -0.0;
    if (v.size() > 3) v[2] = 0.0;
    if (v.size() > 6) v[5] = std::nan("");
    if (v.size() > 9) v[8] = 1e-12;
    if (v.size() > 10) v[9] = 1e12;
    return v;
  };
  auto expect_same = [](const std::vector<double>& got,
                        const std::vector<double>& want, const char* what,
                        size_t n) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t m = 0; m < want.size(); ++m) {
      EXPECT_EQ(Bits(got[m]), Bits(want[m])) << what << " n=" << n
                                             << " m=" << m;
    }
  };
  for (size_t n = 0; n <= 4 * kFixedLaneWidth + 3; ++n) {
    std::vector<std::vector<double>> owned;
    for (size_t r = 0; r < 7; ++r) {
      owned.push_back(special(Irregular(n, 1.5 + static_cast<double>(r))));
    }
    std::vector<const double*> rows;
    for (const auto& row : owned) rows.push_back(row.data());
    const std::vector<double> mu = Irregular(n, 9.1);
    const std::vector<double> range = special(Irregular(n, 4.4));
    const std::vector<double> den = special(Irregular(n, 5.3));

    for (size_t count : {size_t{0}, size_t{1}, rows.size()}) {
      std::vector<double> a(n, 7.0), b(n, 7.0);
      native.sum_rows(a.data(), rows.data(), count, n);
      portable.sum_rows(b.data(), rows.data(), count, n);
      expect_same(a, b, "sum_rows", n);
      native.sum_squared_diffs(a.data(), rows.data(), count, mu.data(), n);
      portable.sum_squared_diffs(b.data(), rows.data(), count, mu.data(), n);
      expect_same(a, b, "sum_squared_diffs", n);
      std::vector<double> lo_a(n, 0.5), hi_a(n, -0.5);
      std::vector<double> lo_b = lo_a, hi_b = hi_a;
      native.min_max_rows(lo_a.data(), hi_a.data(), rows.data(), count, n);
      portable.min_max_rows(lo_b.data(), hi_b.data(), rows.data(), count, n);
      expect_same(lo_a, lo_b, "min_max_rows lo", n);
      expect_same(hi_a, hi_b, "min_max_rows hi", n);
    }

    std::vector<double> a = owned[0], b = owned[0];
    native.divide(a.data(), 3.7, n);
    portable.divide(b.data(), 3.7, n);
    expect_same(a, b, "divide", n);

    std::vector<double> a2 = owned[1], b2 = owned[1];
    native.add_must_link_scatter(a.data(), a2.data(), owned[2].data(),
                                 owned[3].data(), 0.75, n);
    portable.add_must_link_scatter(b.data(), b2.data(), owned[2].data(),
                                   owned[3].data(), 0.75, n);
    expect_same(a, b, "add_must_link_scatter a", n);
    expect_same(a2, b2, "add_must_link_scatter b", n);

    native.add_cannot_link_scatter(a.data(), owned[4].data(), owned[5].data(),
                                   range.data(), 1.25, n);
    portable.add_cannot_link_scatter(b.data(), owned[4].data(),
                                     owned[5].data(), range.data(), 1.25, n);
    expect_same(a, b, "add_cannot_link_scatter", n);

    for (double num : {0.0, 3.0, 125.0}) {
      native.clamped_ratio(a.data(), num, den.data(), 1e-9, 1e9, n);
      portable.clamped_ratio(b.data(), num, den.data(), 1e-9, 1e9, n);
      expect_same(a, b, "clamped_ratio", n);
    }
  }
}

TEST(DistanceKernelsFixedLane, MatchesLegacyWithinRounding) {
  const DistanceKernels& fixed = GetDistanceKernels();
  const size_t n = 19;
  const std::vector<double> a = Irregular(n, 0.3);
  const std::vector<double> b = Irregular(n, 1.7);
  std::vector<double> w = Irregular(n, 5.5);
  for (double& x : w) x = std::fabs(x);
  // The pre-SIMD (legacy) order: left-to-right sums, one element at a time.
  double sq = 0.0, wsq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    sq += d * d;
    wsq += w[i] * d * d;
  }
  EXPECT_NEAR(fixed.squared_euclidean(a.data(), b.data(), n), sq,
              1e-12 * std::fabs(sq));
  EXPECT_NEAR(fixed.weighted_squared_euclidean(a.data(), b.data(), w.data(), n),
              wsq, 1e-12 * std::fabs(wsq));
}

TEST(DistanceKernelsDispatch, ArchIsKnownAndFixedLaneUsesNativeTable) {
  const std::string arch = DistanceKernelArch();
  EXPECT_TRUE(arch == "avx2" || arch == "portable") << arch;
  // Every entry of every table is filled: the matrix build and MPCKMeans
  // call each one unconditionally.
  for (const DistanceKernels* table :
       {&GetDistanceKernels(), &FixedLaneKernelsPortable()}) {
    EXPECT_NE(table->squared_euclidean, nullptr);
    EXPECT_NE(table->weighted_squared_euclidean, nullptr);
    EXPECT_NE(table->squared_euclidean_x4, nullptr);
    EXPECT_NE(table->weighted_squared_euclidean_x4, nullptr);
    EXPECT_NE(table->weighted_squared_euclidean_rows, nullptr);
  }
  if (arch == "portable") {
    EXPECT_EQ(&GetDistanceKernels(), &FixedLaneKernelsPortable());
  }
}

// ---------------------------------------------------------------------------
// Tiled matrix build vs the untiled oracle
// ---------------------------------------------------------------------------

// Ragged multi-tile geometry: d=96 gives ~170-row panels, so n=401 spans
// three ragged panels (170, 170, 61) including diagonal and off-diagonal
// tiles with partial edges.
Matrix TilingFixture() {
  const size_t n = 401, d = 96;
  std::vector<double> flat = Irregular(n * d, 7.7);
  Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) m.At(i, j) = flat[i * d + j];
  }
  return m;
}

// The pre-tiling build: one serial row sweep of single-pair kernel calls
// in condensed order — the oracle of the tiled, batched, parallel build.
DistanceMatrix UntiledEuclidean(const Matrix& points) {
  const DistanceKernels& kernels = GetDistanceKernels();
  const size_t n = points.rows();
  std::vector<double> condensed;
  condensed.reserve(n * (n - 1) / 2);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      condensed.push_back(std::sqrt(kernels.squared_euclidean(
          points.Row(i).data(), points.Row(j).data(), points.cols())));
    }
  }
  return DistanceMatrix::FromCondensed(n, std::move(condensed));
}

TEST(DistanceMatrixTiled, BitwiseEqualsUntiledAtEveryThreadCount) {
  const Matrix points = TilingFixture();
  const DistanceMatrix oracle = UntiledEuclidean(points);
  for (int threads : {1, 2, 8}) {
    ExecutionContext exec;
    exec.threads = threads;
    const DistanceMatrix tiled =
        DistanceMatrix::Compute(points, Metric::kEuclidean, exec);
    ASSERT_EQ(tiled.n(), oracle.n());
    ASSERT_EQ(tiled.condensed().size(), oracle.condensed().size());
    for (size_t i = 0; i < oracle.condensed().size(); ++i) {
      ASSERT_EQ(Bits(tiled.condensed()[i]), Bits(oracle.condensed()[i]))
          << "threads=" << threads << " slot=" << i;
    }
  }
}

}  // namespace
}  // namespace cvcp
