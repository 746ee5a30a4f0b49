// Pinning tests for the distance-kernel layer (common/distance_kernels.h):
//
//  * the fixed-lane contract — the dispatched native table (AVX2/NEON
//    when the CPU has it) must be *bitwise* equal to the portable scalar
//    reference for every kernel, at every vector length around the lane
//    width (0..2*width+3 pins the tail handling);
//  * the strided x4 batch must be bitwise equal to four single-pair
//    calls, packed or padded stride;
//  * fixed-lane vs the legacy left-to-right kernels: equal within
//    rounding (they reassociate), never relied on for bit equality;
//  * policy parsing/naming, the env-independent process default
//    machinery, and the deprecated SetUnrolledDistanceKernels shim
//    (true -> kUnrolled, false -> kFixedLane — pinned so old callers
//    keep their exact behavior);
//  * the tiled DistanceMatrix::Compute against the untiled oracle:
//    bitwise per policy, for ragged multi-tile sizes and any thread
//    count.

#include "common/distance_kernels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
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

// Restores the process-default kernel policy on scope exit — whatever it
// was, including an env-selected scalar-legacy (the CI sweep runs this
// whole binary under CVCP_DISTANCE_KERNEL=scalar-legacy, and a guard
// that "restored" a hardcoded default would clobber that mid-binary).
class PolicyGuard {
 public:
  PolicyGuard() : previous_(DefaultDistanceKernelPolicy()) {}
  ~PolicyGuard() { SetDefaultDistanceKernelPolicy(previous_); }

 private:
  DistanceKernelPolicy previous_;
};

TEST(DistanceKernelsFixedLane, NativeBitwiseEqualsPortableAllLengths) {
  const DistanceKernels& native = FixedLaneKernelsNative();
  const DistanceKernels& portable = FixedLaneKernelsPortable();
  for (size_t n = 0; n <= 2 * kFixedLaneWidth + 3; ++n) {
    const std::vector<double> a = Irregular(n, 0.3);
    const std::vector<double> b = Irregular(n, 1.7);
    const std::vector<double> w = Irregular(n, 2.9);
    EXPECT_EQ(Bits(native.squared_euclidean(a.data(), b.data(), n)),
              Bits(portable.squared_euclidean(a.data(), b.data(), n)))
        << "squared_euclidean n=" << n;
    EXPECT_EQ(Bits(native.manhattan(a.data(), b.data(), n)),
              Bits(portable.manhattan(a.data(), b.data(), n)))
        << "manhattan n=" << n;
    EXPECT_EQ(Bits(native.cosine(a.data(), b.data(), n)),
              Bits(portable.cosine(a.data(), b.data(), n)))
        << "cosine n=" << n;
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
       {&FixedLaneKernelsNative(), &FixedLaneKernelsPortable()}) {
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

TEST(DistanceKernelsFixedLane, MatchesLegacyWithinRounding) {
  const DistanceKernels& fixed = GetDistanceKernels(
      DistanceKernelPolicy::kFixedLane);
  const DistanceKernels& legacy = GetDistanceKernels(
      DistanceKernelPolicy::kScalarLegacy);
  const size_t n = 19;
  const std::vector<double> a = Irregular(n, 0.3);
  const std::vector<double> b = Irregular(n, 1.7);
  const std::vector<double> w = Irregular(n, 5.5);
  std::vector<double> w_pos = w;
  for (double& x : w_pos) x = std::fabs(x);
  const double sq = legacy.squared_euclidean(a.data(), b.data(), n);
  EXPECT_NEAR(fixed.squared_euclidean(a.data(), b.data(), n), sq,
              1e-12 * std::fabs(sq));
  const double man = legacy.manhattan(a.data(), b.data(), n);
  EXPECT_NEAR(fixed.manhattan(a.data(), b.data(), n), man,
              1e-12 * std::fabs(man));
  const double cos = legacy.cosine(a.data(), b.data(), n);
  EXPECT_NEAR(fixed.cosine(a.data(), b.data(), n), cos, 1e-12);
  const double wsq =
      legacy.weighted_squared_euclidean(a.data(), b.data(), w_pos.data(), n);
  EXPECT_NEAR(
      fixed.weighted_squared_euclidean(a.data(), b.data(), w_pos.data(), n),
      wsq, 1e-12 * std::fabs(wsq));
}

TEST(DistanceKernelsDispatch, ArchIsKnownAndFixedLaneUsesNativeTable) {
  const std::string arch = DistanceKernelArch();
  EXPECT_TRUE(arch == "avx2" || arch == "neon" || arch == "portable") << arch;
  EXPECT_EQ(&GetDistanceKernels(DistanceKernelPolicy::kFixedLane),
            &FixedLaneKernelsNative());
  // Legacy and unrolled tables have no batched form; the matrix build
  // falls back to single-pair calls for them.
  EXPECT_EQ(GetDistanceKernels(DistanceKernelPolicy::kScalarLegacy)
                .squared_euclidean_x4,
            nullptr);
  EXPECT_EQ(
      GetDistanceKernels(DistanceKernelPolicy::kUnrolled).squared_euclidean_x4,
      nullptr);
}

TEST(DistanceKernelsPolicy, ParseNamesRoundTrip) {
  DistanceKernelPolicy p = DistanceKernelPolicy::kDefault;
  EXPECT_TRUE(ParseDistanceKernelPolicy("fixed-lane", &p));
  EXPECT_EQ(p, DistanceKernelPolicy::kFixedLane);
  EXPECT_TRUE(ParseDistanceKernelPolicy("scalar-legacy", &p));
  EXPECT_EQ(p, DistanceKernelPolicy::kScalarLegacy);
  EXPECT_TRUE(ParseDistanceKernelPolicy("unrolled", &p));
  EXPECT_EQ(p, DistanceKernelPolicy::kUnrolled);
  EXPECT_FALSE(ParseDistanceKernelPolicy("turbo", &p));
  EXPECT_EQ(p, DistanceKernelPolicy::kUnrolled);  // unchanged on failure

  EXPECT_STREQ(DistanceKernelPolicyName(DistanceKernelPolicy::kFixedLane),
               "fixed-lane");
  EXPECT_STREQ(DistanceKernelPolicyName(DistanceKernelPolicy::kScalarLegacy),
               "scalar-legacy");
}

TEST(DistanceKernelsPolicy, DefaultSlotResolvesAndIgnoresKDefault) {
  PolicyGuard guard;
  SetDefaultDistanceKernelPolicy(DistanceKernelPolicy::kScalarLegacy);
  EXPECT_EQ(DefaultDistanceKernelPolicy(),
            DistanceKernelPolicy::kScalarLegacy);
  EXPECT_EQ(ResolveDistanceKernelPolicy(DistanceKernelPolicy::kDefault),
            DistanceKernelPolicy::kScalarLegacy);
  EXPECT_EQ(ResolveDistanceKernelPolicy(DistanceKernelPolicy::kFixedLane),
            DistanceKernelPolicy::kFixedLane);
  // Setting kDefault is a no-op: there is nothing to resolve it to.
  SetDefaultDistanceKernelPolicy(DistanceKernelPolicy::kDefault);
  EXPECT_EQ(DefaultDistanceKernelPolicy(),
            DistanceKernelPolicy::kScalarLegacy);
}

TEST(DistanceKernelsShim, SetUnrolledPinnedToPolicyValues) {
  PolicyGuard guard;
  SetUnrolledDistanceKernels(true);
  EXPECT_EQ(DefaultDistanceKernelPolicy(), DistanceKernelPolicy::kUnrolled);
  EXPECT_TRUE(UnrolledDistanceKernelsEnabled());
  // The shim's "off" state is the modern default, not the legacy scalar:
  // callers that toggled the old global get the SIMD default back.
  SetUnrolledDistanceKernels(false);
  EXPECT_EQ(DefaultDistanceKernelPolicy(), DistanceKernelPolicy::kFixedLane);
  EXPECT_FALSE(UnrolledDistanceKernelsEnabled());
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

TEST(DistanceMatrixTiled, BitwiseEqualsUntiledPerPolicyAndThreads) {
  const Matrix points = TilingFixture();
  for (DistanceKernelPolicy policy : {DistanceKernelPolicy::kFixedLane,
                                      DistanceKernelPolicy::kScalarLegacy}) {
    ExecutionContext serial = ExecutionContext::Serial();
    serial.distance_kernel = policy;
    const DistanceMatrix oracle =
        DistanceMatrix::ComputeUntiled(points, Metric::kEuclidean, serial);
    for (int threads : {1, 2, 8}) {
      ExecutionContext exec = serial;
      exec.threads = threads;
      const DistanceMatrix tiled =
          DistanceMatrix::Compute(points, Metric::kEuclidean, exec);
      ASSERT_EQ(tiled.n(), oracle.n());
      ASSERT_EQ(tiled.condensed().size(), oracle.condensed().size());
      for (size_t i = 0; i < oracle.condensed().size(); ++i) {
        ASSERT_EQ(Bits(tiled.condensed()[i]), Bits(oracle.condensed()[i]))
            << "policy=" << DistanceKernelPolicyName(policy)
            << " threads=" << threads << " slot=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace cvcp
