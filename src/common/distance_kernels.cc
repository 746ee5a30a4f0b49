#include "common/distance_kernels.h"

#include <algorithm>

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

}  // namespace

// The weighted batches have external linkage because the NEON table,
// which has no NEON form of them, shares them (distance_kernels_neon.cc).
namespace internal {

void PortableWeightedSquaredEuclideanX4(const double* const rows[4],
                                        const double* b, const double* w,
                                        size_t n, double out[4]) {
  for (size_t k = 0; k < 4; ++k) {
    out[k] = FixedWeightedSquaredEuclidean(rows[k], b, w, n);
  }
}

void PortableWeightedSquaredEuclideanRows(const double* a, const double* b,
                                          const double* w, size_t w_stride,
                                          size_t rows, size_t n, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = FixedWeightedSquaredEuclidean(a, b, w + r * w_stride, n);
  }
}

}  // namespace internal

namespace {

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

const DistanceKernels kPortableFixedLane = {
    .squared_euclidean = FixedSquaredEuclidean,
    .weighted_squared_euclidean = FixedWeightedSquaredEuclidean,
    .squared_euclidean_x4 = FixedSquaredEuclideanX4,
    .weighted_squared_euclidean_x4 =
        internal::PortableWeightedSquaredEuclideanX4,
    .weighted_squared_euclidean_rows =
        internal::PortableWeightedSquaredEuclideanRows,
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

}  // namespace

const DistanceKernels& GetDistanceKernels() { return *FixedLane().kernels; }

const DistanceKernels& FixedLaneKernelsPortable() { return kPortableFixedLane; }

const char* DistanceKernelArch() { return FixedLane().arch; }

const RowKernels& GetRowKernels() { return *FixedLane().rows; }

const RowKernels& RowKernelsPortable() { return kPortableRowKernels; }

}  // namespace cvcp
