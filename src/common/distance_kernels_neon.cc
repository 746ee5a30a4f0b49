/// \file
/// NEON (AArch64) implementation of the fixed-lane distance kernels.
/// Compiled with -ffp-contract=off on AArch64 only (CMake defines
/// CVCP_HAVE_NEON); NEON is architecturally mandatory there, so the
/// dispatcher selects this table without a runtime probe.
///
/// Lane mapping: four 128-bit accumulators hold virtual lane pairs
/// (0,1) (2,3) (4,5) (6,7), so one 8-element block is four 2-double
/// loads and lane k receives exactly the terms at indices ≡ k (mod 8) in
/// increasing order — the fixed-lane contract (distance_kernels.h). The
/// registers are spilled to a lane array, the tail is accumulated in
/// scalar, and the canonical reduction tree runs in scalar — all
/// bit-identical to the portable reference. No FMA intrinsics (vfmaq):
/// fusion would change the rounding of every term.

#include "common/distance_kernels.h"

#if defined(CVCP_HAVE_NEON)

#include <arm_neon.h>

namespace cvcp::internal {

// The portable weighted batches (distance_kernels.cc). Under the
// fixed-lane contract they give the NEON single-pair kernel's bits.
void PortableWeightedSquaredEuclideanX4(const double* const rows[4],
                                        const double* b, const double* w,
                                        size_t n, double out[4]);
void PortableWeightedSquaredEuclideanRows(const double* a, const double* b,
                                          const double* w, size_t w_stride,
                                          size_t rows, size_t n, double* out);

namespace {

inline double ReduceLanes(const double lanes[kFixedLaneWidth]) {
  const double m0 = lanes[0] + lanes[4];
  const double m1 = lanes[1] + lanes[5];
  const double m2 = lanes[2] + lanes[6];
  const double m3 = lanes[3] + lanes[7];
  return (m0 + m2) + (m1 + m3);
}

struct Acc8 {
  float64x2_t v01 = vdupq_n_f64(0.0);
  float64x2_t v23 = vdupq_n_f64(0.0);
  float64x2_t v45 = vdupq_n_f64(0.0);
  float64x2_t v67 = vdupq_n_f64(0.0);

  void Spill(double lanes[kFixedLaneWidth]) const {
    vst1q_f64(lanes, v01);
    vst1q_f64(lanes + 2, v23);
    vst1q_f64(lanes + 4, v45);
    vst1q_f64(lanes + 6, v67);
  }
};

double NeonSquaredEuclidean(const double* a, const double* b, size_t n) {
  Acc8 acc;
  const size_t base = n - n % kFixedLaneWidth;
  for (size_t i = 0; i < base; i += kFixedLaneWidth) {
    const float64x2_t d01 = vsubq_f64(vld1q_f64(a + i), vld1q_f64(b + i));
    const float64x2_t d23 =
        vsubq_f64(vld1q_f64(a + i + 2), vld1q_f64(b + i + 2));
    const float64x2_t d45 =
        vsubq_f64(vld1q_f64(a + i + 4), vld1q_f64(b + i + 4));
    const float64x2_t d67 =
        vsubq_f64(vld1q_f64(a + i + 6), vld1q_f64(b + i + 6));
    acc.v01 = vaddq_f64(acc.v01, vmulq_f64(d01, d01));
    acc.v23 = vaddq_f64(acc.v23, vmulq_f64(d23, d23));
    acc.v45 = vaddq_f64(acc.v45, vmulq_f64(d45, d45));
    acc.v67 = vaddq_f64(acc.v67, vmulq_f64(d67, d67));
  }
  double lanes[kFixedLaneWidth];
  acc.Spill(lanes);
  for (size_t i = base; i < n; ++i) {
    const double d = a[i] - b[i];
    lanes[i - base] += d * d;
  }
  return ReduceLanes(lanes);
}

// Four pairs against a shared `a`: the four `a` loads per block feed all
// four b-streams and the sixteen accumulators give four independent add
// chains (AArch64 has 32 vector registers). Per pair the terms hit the
// same lanes in the same order as NeonSquaredEuclidean —
// bitwise-identical results.
void NeonSquaredEuclideanX4(const double* a, const double* b, size_t stride,
                            size_t n, double out[4]) {
  const double* bs[4] = {b, b + stride, b + 2 * stride, b + 3 * stride};
  Acc8 acc[4];
  const size_t base = n - n % kFixedLaneWidth;
  for (size_t i = 0; i < base; i += kFixedLaneWidth) {
    const float64x2_t a01 = vld1q_f64(a + i);
    const float64x2_t a23 = vld1q_f64(a + i + 2);
    const float64x2_t a45 = vld1q_f64(a + i + 4);
    const float64x2_t a67 = vld1q_f64(a + i + 6);
    for (size_t p = 0; p < 4; ++p) {
      const float64x2_t d01 = vsubq_f64(a01, vld1q_f64(bs[p] + i));
      const float64x2_t d23 = vsubq_f64(a23, vld1q_f64(bs[p] + i + 2));
      const float64x2_t d45 = vsubq_f64(a45, vld1q_f64(bs[p] + i + 4));
      const float64x2_t d67 = vsubq_f64(a67, vld1q_f64(bs[p] + i + 6));
      acc[p].v01 = vaddq_f64(acc[p].v01, vmulq_f64(d01, d01));
      acc[p].v23 = vaddq_f64(acc[p].v23, vmulq_f64(d23, d23));
      acc[p].v45 = vaddq_f64(acc[p].v45, vmulq_f64(d45, d45));
      acc[p].v67 = vaddq_f64(acc[p].v67, vmulq_f64(d67, d67));
    }
  }
  for (size_t p = 0; p < 4; ++p) {
    double lanes[kFixedLaneWidth];
    acc[p].Spill(lanes);
    for (size_t i = base; i < n; ++i) {
      const double d = a[i] - bs[p][i];
      lanes[i - base] += d * d;
    }
    out[p] = ReduceLanes(lanes);
  }
}

double NeonWeightedSquaredEuclidean(const double* a, const double* b,
                                    const double* w, size_t n) {
  Acc8 acc;
  const size_t base = n - n % kFixedLaneWidth;
  for (size_t i = 0; i < base; i += kFixedLaneWidth) {
    const float64x2_t d01 = vsubq_f64(vld1q_f64(a + i), vld1q_f64(b + i));
    const float64x2_t d23 =
        vsubq_f64(vld1q_f64(a + i + 2), vld1q_f64(b + i + 2));
    const float64x2_t d45 =
        vsubq_f64(vld1q_f64(a + i + 4), vld1q_f64(b + i + 4));
    const float64x2_t d67 =
        vsubq_f64(vld1q_f64(a + i + 6), vld1q_f64(b + i + 6));
    acc.v01 = vaddq_f64(acc.v01,
                        vmulq_f64(vld1q_f64(w + i), vmulq_f64(d01, d01)));
    acc.v23 = vaddq_f64(acc.v23,
                        vmulq_f64(vld1q_f64(w + i + 2), vmulq_f64(d23, d23)));
    acc.v45 = vaddq_f64(acc.v45,
                        vmulq_f64(vld1q_f64(w + i + 4), vmulq_f64(d45, d45)));
    acc.v67 = vaddq_f64(acc.v67,
                        vmulq_f64(vld1q_f64(w + i + 6), vmulq_f64(d67, d67)));
  }
  double lanes[kFixedLaneWidth];
  acc.Spill(lanes);
  for (size_t i = base; i < n; ++i) {
    const double d = a[i] - b[i];
    lanes[i - base] += w[i] * (d * d);
  }
  return ReduceLanes(lanes);
}

const DistanceKernels kNeonFixedLane = {
    .squared_euclidean = NeonSquaredEuclidean,
    .weighted_squared_euclidean = NeonWeightedSquaredEuclidean,
    .squared_euclidean_x4 = NeonSquaredEuclideanX4,
    // No NEON form of the weighted batches until one is built and tested
    // on AArch64.
    .weighted_squared_euclidean_x4 = PortableWeightedSquaredEuclideanX4,
    .weighted_squared_euclidean_rows = PortableWeightedSquaredEuclideanRows,
};

}  // namespace

const DistanceKernels& NeonFixedLaneKernels() { return kNeonFixedLane; }

}  // namespace cvcp::internal

#endif  // CVCP_HAVE_NEON
