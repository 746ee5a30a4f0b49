#include "common/distance_kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace cvcp {

namespace {

// ---------------------------------------------------------------------------
// Fixed-lane portable reference (the pinning oracle)
// ---------------------------------------------------------------------------
// Every SIMD implementation must be bitwise-identical to these loops; the
// whole translation unit is compiled with -ffp-contract=off so the
// compiler cannot fuse the mul+add pairs into FMAs behind our back.

/// The canonical lane-reduction tree shared by every implementation:
/// m_j = lane_j + lane_{j+4}, then (m0 + m2) + (m1 + m3).
inline double ReduceLanes(const double lanes[kFixedLaneWidth]) {
  const double m0 = lanes[0] + lanes[4];
  const double m1 = lanes[1] + lanes[5];
  const double m2 = lanes[2] + lanes[6];
  const double m3 = lanes[3] + lanes[7];
  return (m0 + m2) + (m1 + m3);
}

double FixedSquaredEuclidean(const double* a, const double* b, size_t n) {
  double lanes[kFixedLaneWidth] = {};
  const size_t base = n - n % kFixedLaneWidth;
  for (size_t i = 0; i < base; i += kFixedLaneWidth) {
    for (size_t k = 0; k < kFixedLaneWidth; ++k) {
      const double d = a[i + k] - b[i + k];
      lanes[k] += d * d;
    }
  }
  for (size_t i = base; i < n; ++i) {
    const double d = a[i] - b[i];
    lanes[i - base] += d * d;
  }
  return ReduceLanes(lanes);
}

void FixedSquaredEuclideanX4(const double* a, const double* b, size_t stride,
                             size_t n, double out[4]) {
  for (size_t k = 0; k < 4; ++k) {
    out[k] = FixedSquaredEuclidean(a, b + k * stride, n);
  }
}

double FixedManhattan(const double* a, const double* b, size_t n) {
  double lanes[kFixedLaneWidth] = {};
  const size_t base = n - n % kFixedLaneWidth;
  for (size_t i = 0; i < base; i += kFixedLaneWidth) {
    for (size_t k = 0; k < kFixedLaneWidth; ++k) {
      lanes[k] += std::fabs(a[i + k] - b[i + k]);
    }
  }
  for (size_t i = base; i < n; ++i) {
    lanes[i - base] += std::fabs(a[i] - b[i]);
  }
  return ReduceLanes(lanes);
}

double FixedCosine(const double* a, const double* b, size_t n) {
  double dot[kFixedLaneWidth] = {};
  double na[kFixedLaneWidth] = {};
  double nb[kFixedLaneWidth] = {};
  const size_t base = n - n % kFixedLaneWidth;
  for (size_t i = 0; i < base; i += kFixedLaneWidth) {
    for (size_t k = 0; k < kFixedLaneWidth; ++k) {
      dot[k] += a[i + k] * b[i + k];
      na[k] += a[i + k] * a[i + k];
      nb[k] += b[i + k] * b[i + k];
    }
  }
  for (size_t i = base; i < n; ++i) {
    dot[i - base] += a[i] * b[i];
    na[i - base] += a[i] * a[i];
    nb[i - base] += b[i] * b[i];
  }
  const double sum_dot = ReduceLanes(dot);
  const double sum_na = ReduceLanes(na);
  const double sum_nb = ReduceLanes(nb);
  if (sum_na == 0.0 || sum_nb == 0.0) return 1.0;
  return 1.0 - sum_dot / (std::sqrt(sum_na) * std::sqrt(sum_nb));
}

double FixedWeightedSquaredEuclidean(const double* a, const double* b,
                                     const double* w, size_t n) {
  double lanes[kFixedLaneWidth] = {};
  const size_t base = n - n % kFixedLaneWidth;
  for (size_t i = 0; i < base; i += kFixedLaneWidth) {
    for (size_t k = 0; k < kFixedLaneWidth; ++k) {
      const double d = a[i + k] - b[i + k];
      lanes[k] += w[i + k] * (d * d);
    }
  }
  for (size_t i = base; i < n; ++i) {
    const double d = a[i] - b[i];
    lanes[i - base] += w[i] * (d * d);
  }
  return ReduceLanes(lanes);
}

void FixedWeightedSquaredEuclideanX4(const double* const rows[4],
                                     const double* b, const double* w,
                                     size_t n, double out[4]) {
  for (size_t k = 0; k < 4; ++k) {
    out[k] = FixedWeightedSquaredEuclidean(rows[k], b, w, n);
  }
}

void FixedWeightedSquaredEuclideanRows(const double* a, const double* b,
                                       const double* w, size_t w_stride,
                                       size_t rows, size_t n, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = FixedWeightedSquaredEuclidean(a, b, w + r * w_stride, n);
  }
}

// ---------------------------------------------------------------------------
// Portable row updates (the pin for the dispatched RowKernels table)
// ---------------------------------------------------------------------------

void RowSumRows(double* out, const double* const* rows, size_t count,
                size_t n) {
  for (size_t m = 0; m < n; ++m) out[m] = 0.0;
  for (size_t r = 0; r < count; ++r) {
    for (size_t m = 0; m < n; ++m) out[m] += rows[r][m];
  }
}

void RowSumSquaredDiffs(double* out, const double* const* rows, size_t count,
                        const double* mu, size_t n) {
  for (size_t m = 0; m < n; ++m) out[m] = 0.0;
  for (size_t r = 0; r < count; ++r) {
    for (size_t m = 0; m < n; ++m) {
      const double e = rows[r][m] - mu[m];
      out[m] += e * e;
    }
  }
}

void RowMinMaxRows(double* lo, double* hi, const double* const* rows,
                   size_t count, size_t n) {
  for (size_t r = 0; r < count; ++r) {
    for (size_t m = 0; m < n; ++m) {
      lo[m] = std::min(lo[m], rows[r][m]);
      hi[m] = std::max(hi[m], rows[r][m]);
    }
  }
}

void RowDivide(double* acc, double divisor, size_t n) {
  for (size_t m = 0; m < n; ++m) acc[m] /= divisor;
}

void RowAddMustLinkScatter(double* acc_a, double* acc_b, const double* x,
                           const double* y, double half_weight, size_t n) {
  for (size_t m = 0; m < n; ++m) {
    const double e = x[m] - y[m];
    const double t = half_weight * e * e;
    acc_a[m] += 0.5 * t;
    acc_b[m] += 0.5 * t;
  }
}

void RowAddCannotLinkScatter(double* acc, const double* x, const double* y,
                             const double* range, double weight, size_t n) {
  for (size_t m = 0; m < n; ++m) {
    const double e = x[m] - y[m];
    acc[m] += weight * std::max(0.0, range[m] - e * e);
  }
}

void RowClampedRatio(double* out, double num, const double* den, double lo,
                     double hi, size_t n) {
  for (size_t m = 0; m < n; ++m) {
    out[m] = std::clamp(num / std::max(den[m], lo), lo, hi);
  }
}

const RowKernels kPortableRowKernels = {
    RowSumRows,
    RowSumSquaredDiffs,
    RowMinMaxRows,
    RowDivide,
    RowAddMustLinkScatter,
    RowAddCannotLinkScatter,
    RowClampedRatio,
};

// ---------------------------------------------------------------------------
// Legacy scalar kernels (the pre-SIMD left-to-right byte baseline)
// ---------------------------------------------------------------------------

double LegacySquaredEuclidean(const double* a, const double* b, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

double LegacyManhattan(const double* a, const double* b, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += std::fabs(a[i] - b[i]);
  }
  return sum;
}

double LegacyCosine(const double* a, const double* b, size_t n) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  if (na == 0.0 || nb == 0.0) return 1.0;
  return 1.0 - dot / (std::sqrt(na) * std::sqrt(nb));
}

double LegacyWeightedSquaredEuclidean(const double* a, const double* b,
                                      const double* w, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += w[i] * d * d;
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Unrolled scalar kernels (4 accumulators, reassociated; opt-in)
// ---------------------------------------------------------------------------

double UnrolledSquaredEuclidean(const double* a, const double* b, size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    s0 += d * d;
  }
  return (s0 + s1) + (s2 + s3);
}

double UnrolledManhattan(const double* a, const double* b, size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += std::fabs(a[i] - b[i]);
    s1 += std::fabs(a[i + 1] - b[i + 1]);
    s2 += std::fabs(a[i + 2] - b[i + 2]);
    s3 += std::fabs(a[i + 3] - b[i + 3]);
  }
  for (; i < n; ++i) {
    s0 += std::fabs(a[i] - b[i]);
  }
  return (s0 + s1) + (s2 + s3);
}

double UnrolledWeightedSquaredEuclidean(const double* a, const double* b,
                                        const double* w, size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    s0 += w[i] * d0 * d0;
    s1 += w[i + 1] * d1 * d1;
    s2 += w[i + 2] * d2 * d2;
    s3 += w[i + 3] * d3 * d3;
  }
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    s0 += w[i] * d * d;
  }
  return (s0 + s1) + (s2 + s3);
}

const DistanceKernels kPortableFixedLane = {
    FixedSquaredEuclidean,
    FixedManhattan,
    FixedCosine,
    FixedWeightedSquaredEuclidean,
    FixedSquaredEuclideanX4,
    FixedWeightedSquaredEuclideanX4,
    FixedWeightedSquaredEuclideanRows,
};

const DistanceKernels kScalarLegacy = {
    LegacySquaredEuclidean,
    LegacyManhattan,
    LegacyCosine,
    LegacyWeightedSquaredEuclidean,
    nullptr,
    nullptr,
    nullptr,
};

// The unrolled set never had a reassociated cosine; it keeps the legacy
// single-pass loop (pinned by the shim test).
const DistanceKernels kUnrolled = {
    UnrolledSquaredEuclidean,
    UnrolledManhattan,
    LegacyCosine,
    UnrolledWeightedSquaredEuclidean,
    nullptr,
    nullptr,
    nullptr,
};

}  // namespace

// Arch-specific fixed-lane tables, defined in their own translation
// units (compiled with the matching -m flags) and only when CMake
// enables them for the target architecture.
namespace internal {
#if defined(CVCP_HAVE_AVX2)
const DistanceKernels& Avx2FixedLaneKernels();
const RowKernels& Avx2RowKernels();
#endif
#if defined(CVCP_HAVE_NEON)
const DistanceKernels& NeonFixedLaneKernels();
#endif
}  // namespace internal

namespace {

/// One-time dispatch: the widest fixed-lane implementation this CPU
/// supports. All candidates are bitwise-identical, so the choice is
/// invisible in results — it only moves wall time.
struct FixedLaneChoice {
  const DistanceKernels* kernels;
  const RowKernels* rows;
  const char* arch;
};

FixedLaneChoice ChooseFixedLane() {
#if defined(CVCP_HAVE_AVX2) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2")) {
    return {&internal::Avx2FixedLaneKernels(), &internal::Avx2RowKernels(),
            "avx2"};
  }
#endif
#if defined(CVCP_HAVE_NEON)
  // NEON is architecturally mandatory on AArch64; no runtime probe. The
  // row updates have no NEON form and run the portable loops.
  return {&internal::NeonFixedLaneKernels(), &kPortableRowKernels, "neon"};
#endif
  return {&kPortableFixedLane, &kPortableRowKernels, "portable"};
}

const FixedLaneChoice& FixedLane() {
  static const FixedLaneChoice choice = ChooseFixedLane();
  return choice;
}

DistanceKernelPolicy PolicyFromEnv() {
  DistanceKernelPolicy policy = DistanceKernelPolicy::kFixedLane;
  if (const char* v = std::getenv("CVCP_DISTANCE_KERNEL")) {
    ParseDistanceKernelPolicy(v, &policy);
  }
  return policy;
}

std::atomic<DistanceKernelPolicy>& DefaultPolicySlot() {
  static std::atomic<DistanceKernelPolicy> slot{PolicyFromEnv()};
  return slot;
}

}  // namespace

DistanceKernelPolicy DefaultDistanceKernelPolicy() {
  return DefaultPolicySlot().load(std::memory_order_relaxed);
}

void SetDefaultDistanceKernelPolicy(DistanceKernelPolicy policy) {
  if (policy == DistanceKernelPolicy::kDefault) return;  // nothing to resolve to
  DefaultPolicySlot().store(policy, std::memory_order_relaxed);
}

DistanceKernelPolicy ResolveDistanceKernelPolicy(DistanceKernelPolicy policy) {
  return policy == DistanceKernelPolicy::kDefault ? DefaultDistanceKernelPolicy()
                                                  : policy;
}

const char* DistanceKernelPolicyName(DistanceKernelPolicy policy) {
  switch (policy) {
    case DistanceKernelPolicy::kDefault:
      return "default";
    case DistanceKernelPolicy::kFixedLane:
      return "fixed-lane";
    case DistanceKernelPolicy::kScalarLegacy:
      return "scalar-legacy";
    case DistanceKernelPolicy::kUnrolled:
      return "unrolled";
  }
  return "unknown";
}

bool ParseDistanceKernelPolicy(const char* name, DistanceKernelPolicy* out) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "fixed") == 0 || std::strcmp(name, "fixed-lane") == 0) {
    *out = DistanceKernelPolicy::kFixedLane;
    return true;
  }
  if (std::strcmp(name, "scalar-legacy") == 0 ||
      std::strcmp(name, "scalar") == 0) {
    *out = DistanceKernelPolicy::kScalarLegacy;
    return true;
  }
  if (std::strcmp(name, "unrolled") == 0) {
    *out = DistanceKernelPolicy::kUnrolled;
    return true;
  }
  return false;
}

const DistanceKernels& GetDistanceKernels(DistanceKernelPolicy policy) {
  switch (ResolveDistanceKernelPolicy(policy)) {
    case DistanceKernelPolicy::kScalarLegacy:
      return kScalarLegacy;
    case DistanceKernelPolicy::kUnrolled:
      return kUnrolled;
    case DistanceKernelPolicy::kDefault:  // unreachable after resolution
    case DistanceKernelPolicy::kFixedLane:
      break;
  }
  return *FixedLane().kernels;
}

const DistanceKernels& FixedLaneKernelsPortable() { return kPortableFixedLane; }

const DistanceKernels& FixedLaneKernelsNative() { return *FixedLane().kernels; }

const char* DistanceKernelArch() { return FixedLane().arch; }

const RowKernels& GetRowKernels() { return *FixedLane().rows; }

const RowKernels& RowKernelsPortable() { return kPortableRowKernels; }

}  // namespace cvcp
