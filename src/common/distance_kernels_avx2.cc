/// \file
/// AVX2 implementation of the fixed-lane distance kernels and of the row
/// kernels (`RowKernels`, distance_kernels.h). Compiled with
/// -mavx2 -ffp-contract=off on x86-64 only (CMake defines
/// CVCP_HAVE_AVX2); selected at runtime by the dispatcher in
/// distance_kernels.cc when the CPU reports AVX2.
///
/// Lane mapping: accumulator register 0 holds virtual lanes 0..3,
/// register 1 holds lanes 4..7, so one 8-element block is two 256-bit
/// loads and lane k receives exactly the terms at indices ≡ k (mod 8) in
/// increasing order — the fixed-lane contract (distance_kernels.h). The
/// registers are spilled to a lane array, the tail is accumulated in
/// scalar (bit-identical: same adds, same order), and the canonical
/// reduction tree runs in scalar. No FMA intrinsics anywhere: fusion
/// would change the rounding of every term.

#include "common/distance_kernels.h"

#if defined(CVCP_HAVE_AVX2)

#include <immintrin.h>

namespace cvcp::internal {

namespace {

inline double ReduceLanes(const double lanes[kFixedLaneWidth]) {
  const double m0 = lanes[0] + lanes[4];
  const double m1 = lanes[1] + lanes[5];
  const double m2 = lanes[2] + lanes[6];
  const double m3 = lanes[3] + lanes[7];
  return (m0 + m2) + (m1 + m3);
}

/// The same reduction tree without leaving the registers: acc0 holds
/// lanes 0..3 and acc1 lanes 4..7, so vaddpd(acc0, acc1) is exactly
/// (m0, m1, m2, m3), the 128-bit halves add to (m0+m2, m1+m3), and the
/// final scalar add closes the tree — the identical additions in the
/// identical order as ReduceLanes, so the result is bit-equal. Used on
/// the no-tail path (n divisible by 8), where spilling the lanes to
/// memory for scalar reduction would cost more than the whole main loop.
inline double ReduceButterfly(__m256d acc0, __m256d acc1) {
  const __m256d m = _mm256_add_pd(acc0, acc1);
  const __m128d lo = _mm256_castpd256_pd128(m);        // (m0, m1)
  const __m128d hi = _mm256_extractf128_pd(m, 1);      // (m2, m3)
  const __m128d s = _mm_add_pd(lo, hi);                // (m0+m2, m1+m3)
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

inline void SpillLanes(__m256d acc0, __m256d acc1,
                       double lanes[kFixedLaneWidth]) {
  _mm256_storeu_pd(lanes, acc0);
  _mm256_storeu_pd(lanes + 4, acc1);
}

double Avx2SquaredEuclidean(const double* a, const double* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  const size_t base = n - n % kFixedLaneWidth;
  for (size_t i = 0; i < base; i += kFixedLaneWidth) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4));
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
  }
  if (base == n) return ReduceButterfly(acc0, acc1);
  double lanes[kFixedLaneWidth];
  SpillLanes(acc0, acc1, lanes);
  for (size_t i = base; i < n; ++i) {
    const double d = a[i] - b[i];
    lanes[i - base] += d * d;
  }
  return ReduceLanes(lanes);
}

// Four pairs at once against a shared `a`: one pair of `a` loads feeds
// four b-streams, and the eight accumulator registers give four
// independent add chains, so the loop runs at add *throughput* instead
// of one pair's add latency. Per pair the terms hit the same lanes in
// the same order as Avx2SquaredEuclidean — bitwise-identical results.
void Avx2SquaredEuclideanX4(const double* a, const double* b, size_t stride,
                            size_t n, double out[4]) {
  const double* bs[4] = {b, b + stride, b + 2 * stride, b + 3 * stride};
  __m256d acc0[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                     _mm256_setzero_pd(), _mm256_setzero_pd()};
  __m256d acc1[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                     _mm256_setzero_pd(), _mm256_setzero_pd()};
  const size_t base = n - n % kFixedLaneWidth;
  for (size_t i = 0; i < base; i += kFixedLaneWidth) {
    const __m256d va0 = _mm256_loadu_pd(a + i);
    const __m256d va1 = _mm256_loadu_pd(a + i + 4);
    for (size_t p = 0; p < 4; ++p) {
      const __m256d d0 = _mm256_sub_pd(va0, _mm256_loadu_pd(bs[p] + i));
      const __m256d d1 = _mm256_sub_pd(va1, _mm256_loadu_pd(bs[p] + i + 4));
      acc0[p] = _mm256_add_pd(acc0[p], _mm256_mul_pd(d0, d0));
      acc1[p] = _mm256_add_pd(acc1[p], _mm256_mul_pd(d1, d1));
    }
  }
  if (base == n) {
    for (size_t p = 0; p < 4; ++p) out[p] = ReduceButterfly(acc0[p], acc1[p]);
    return;
  }
  for (size_t p = 0; p < 4; ++p) {
    double lanes[kFixedLaneWidth];
    SpillLanes(acc0[p], acc1[p], lanes);
    for (size_t i = base; i < n; ++i) {
      const double d = a[i] - bs[p][i];
      lanes[i - base] += d * d;
    }
    out[p] = ReduceLanes(lanes);
  }
}

double Avx2WeightedSquaredEuclidean(const double* a, const double* b,
                                    const double* w, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  const size_t base = n - n % kFixedLaneWidth;
  for (size_t i = 0; i < base; i += kFixedLaneWidth) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4));
    // w * (d * d), matching the portable reference's parenthesization.
    acc0 = _mm256_add_pd(
        acc0, _mm256_mul_pd(_mm256_loadu_pd(w + i), _mm256_mul_pd(d0, d0)));
    acc1 = _mm256_add_pd(
        acc1,
        _mm256_mul_pd(_mm256_loadu_pd(w + i + 4), _mm256_mul_pd(d1, d1)));
  }
  if (base == n) return ReduceButterfly(acc0, acc1);
  double lanes[kFixedLaneWidth];
  SpillLanes(acc0, acc1, lanes);
  for (size_t i = base; i < n; ++i) {
    const double d = a[i] - b[i];
    lanes[i - base] += w[i] * (d * d);
  }
  return ReduceLanes(lanes);
}

// Four gathered rows against one `b` and one weight row: the `b` and `w`
// loads are shared and the four pairs give four independent add chains.
// Per pair the terms hit the same lanes in the same order as
// Avx2WeightedSquaredEuclidean — bitwise-identical results.
void Avx2WeightedSquaredEuclideanX4(const double* const rows[4],
                                    const double* b, const double* w,
                                    size_t n, double out[4]) {
  __m256d acc0[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                     _mm256_setzero_pd(), _mm256_setzero_pd()};
  __m256d acc1[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                     _mm256_setzero_pd(), _mm256_setzero_pd()};
  const size_t base = n - n % kFixedLaneWidth;
  for (size_t i = 0; i < base; i += kFixedLaneWidth) {
    const __m256d vb0 = _mm256_loadu_pd(b + i);
    const __m256d vb1 = _mm256_loadu_pd(b + i + 4);
    const __m256d vw0 = _mm256_loadu_pd(w + i);
    const __m256d vw1 = _mm256_loadu_pd(w + i + 4);
    for (size_t p = 0; p < 4; ++p) {
      const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(rows[p] + i), vb0);
      const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(rows[p] + i + 4), vb1);
      acc0[p] = _mm256_add_pd(acc0[p],
                              _mm256_mul_pd(vw0, _mm256_mul_pd(d0, d0)));
      acc1[p] = _mm256_add_pd(acc1[p],
                              _mm256_mul_pd(vw1, _mm256_mul_pd(d1, d1)));
    }
  }
  if (base == n) {
    for (size_t p = 0; p < 4; ++p) out[p] = ReduceButterfly(acc0[p], acc1[p]);
    return;
  }
  for (size_t p = 0; p < 4; ++p) {
    double lanes[kFixedLaneWidth];
    SpillLanes(acc0[p], acc1[p], lanes);
    for (size_t i = base; i < n; ++i) {
      const double d = rows[p][i] - b[i];
      lanes[i - base] += w[i] * (d * d);
    }
    out[p] = ReduceLanes(lanes);
  }
}

// One pair under R weight rows: d*d is formed once per block and feeds
// all R accumulator pairs. Per row the terms hit the same lanes in the
// same order as Avx2WeightedSquaredEuclidean (w * (d * d); the product
// d * d is the same value whichever row consumes it).
template <size_t R>
void Avx2WeightedRowsChunk(const double* a, const double* b, const double* w,
                           size_t w_stride, size_t n, double* out) {
  __m256d acc0[R];
  __m256d acc1[R];
  for (size_t r = 0; r < R; ++r) {
    acc0[r] = _mm256_setzero_pd();
    acc1[r] = _mm256_setzero_pd();
  }
  const size_t base = n - n % kFixedLaneWidth;
  for (size_t i = 0; i < base; i += kFixedLaneWidth) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4));
    const __m256d sq0 = _mm256_mul_pd(d0, d0);
    const __m256d sq1 = _mm256_mul_pd(d1, d1);
    for (size_t r = 0; r < R; ++r) {
      const double* wr = w + r * w_stride;
      acc0[r] = _mm256_add_pd(acc0[r],
                              _mm256_mul_pd(_mm256_loadu_pd(wr + i), sq0));
      acc1[r] = _mm256_add_pd(acc1[r],
                              _mm256_mul_pd(_mm256_loadu_pd(wr + i + 4), sq1));
    }
  }
  if (base == n) {
    for (size_t r = 0; r < R; ++r) out[r] = ReduceButterfly(acc0[r], acc1[r]);
    return;
  }
  for (size_t r = 0; r < R; ++r) {
    const double* wr = w + r * w_stride;
    double lanes[kFixedLaneWidth];
    SpillLanes(acc0[r], acc1[r], lanes);
    for (size_t i = base; i < n; ++i) {
      const double d = a[i] - b[i];
      lanes[i - base] += wr[i] * (d * d);
    }
    out[r] = ReduceLanes(lanes);
  }
}

void Avx2WeightedSquaredEuclideanRows(const double* a, const double* b,
                                      const double* w, size_t w_stride,
                                      size_t rows, size_t n, double* out) {
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    Avx2WeightedRowsChunk<4>(a, b, w + r * w_stride, w_stride, n, out + r);
  }
  switch (rows - r) {
    case 3:
      Avx2WeightedRowsChunk<3>(a, b, w + r * w_stride, w_stride, n, out + r);
      break;
    case 2:
      Avx2WeightedRowsChunk<2>(a, b, w + r * w_stride, w_stride, n, out + r);
      break;
    case 1:
      Avx2WeightedRowsChunk<1>(a, b, w + r * w_stride, w_stride, n, out + r);
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Row loops: four dimensions per instruction, each element its own
// accumulator with the portable loop's exact operation sequence. The
// column sums keep V registers of accumulators for a block of 4 * V
// dimensions and stream every row through them, so no accumulator goes
// through memory between rows.
// ---------------------------------------------------------------------------

template <size_t V, typename Term>
inline void SumColumnBlock(double* out, size_t count, size_t m, Term term) {
  __m256d acc[V];
  for (size_t v = 0; v < V; ++v) acc[v] = _mm256_setzero_pd();
  for (size_t r = 0; r < count; ++r) {
    for (size_t v = 0; v < V; ++v) {
      acc[v] = _mm256_add_pd(acc[v], term(r, m + 4 * v));
    }
  }
  for (size_t v = 0; v < V; ++v) _mm256_storeu_pd(out + m + 4 * v, acc[v]);
}

/// out[m] = sum over r of term(r, m), in row order onto +0.0; `term`
/// returns four consecutive dimensions' terms, `scalar` one dimension's.
template <typename Term, typename Scalar>
inline void SumColumns(double* out, size_t count, size_t n, Term term,
                       Scalar scalar) {
  size_t m = 0;
  for (; m + 32 <= n; m += 32) SumColumnBlock<8>(out, count, m, term);
  for (; m + 16 <= n; m += 16) SumColumnBlock<4>(out, count, m, term);
  for (; m + 4 <= n; m += 4) SumColumnBlock<1>(out, count, m, term);
  for (; m < n; ++m) {
    double s = 0.0;
    for (size_t r = 0; r < count; ++r) s += scalar(r, m);
    out[m] = s;
  }
}

void Avx2RowSumRows(double* out, const double* const* rows, size_t count,
                    size_t n) {
  SumColumns(
      out, count, n,
      [rows](size_t r, size_t j) { return _mm256_loadu_pd(rows[r] + j); },
      [rows](size_t r, size_t j) { return rows[r][j]; });
}

void Avx2RowSumSquaredDiffs(double* out, const double* const* rows,
                            size_t count, const double* mu, size_t n) {
  SumColumns(
      out, count, n,
      [rows, mu](size_t r, size_t j) {
        const __m256d e = _mm256_sub_pd(_mm256_loadu_pd(rows[r] + j),
                                        _mm256_loadu_pd(mu + j));
        return _mm256_mul_pd(e, e);
      },
      [rows, mu](size_t r, size_t j) {
        const double e = rows[r][j] - mu[j];
        return e * e;
      });
}

// std::min(lo, x) is (x < lo) ? x : lo == vminpd(x, lo), and
// std::max(hi, x) is (hi < x) ? x : hi == vmaxpd(x, hi): the same
// element for every input, NaN and signed zeros included.
void Avx2RowMinMaxRows(double* lo, double* hi, const double* const* rows,
                       size_t count, size_t n) {
  size_t m = 0;
  for (; m + 8 <= n; m += 8) {
    __m256d lo0 = _mm256_loadu_pd(lo + m), lo1 = _mm256_loadu_pd(lo + m + 4);
    __m256d hi0 = _mm256_loadu_pd(hi + m), hi1 = _mm256_loadu_pd(hi + m + 4);
    for (size_t r = 0; r < count; ++r) {
      const __m256d x0 = _mm256_loadu_pd(rows[r] + m);
      const __m256d x1 = _mm256_loadu_pd(rows[r] + m + 4);
      lo0 = _mm256_min_pd(x0, lo0);
      lo1 = _mm256_min_pd(x1, lo1);
      hi0 = _mm256_max_pd(x0, hi0);
      hi1 = _mm256_max_pd(x1, hi1);
    }
    _mm256_storeu_pd(lo + m, lo0);
    _mm256_storeu_pd(lo + m + 4, lo1);
    _mm256_storeu_pd(hi + m, hi0);
    _mm256_storeu_pd(hi + m + 4, hi1);
  }
  for (; m < n; ++m) {
    for (size_t r = 0; r < count; ++r) {
      const double x = rows[r][m];
      lo[m] = x < lo[m] ? x : lo[m];
      hi[m] = hi[m] < x ? x : hi[m];
    }
  }
}

void Avx2RowDivide(double* acc, double divisor, size_t n) {
  const __m256d v = _mm256_set1_pd(divisor);
  size_t m = 0;
  for (; m + 4 <= n; m += 4) {
    _mm256_storeu_pd(acc + m, _mm256_div_pd(_mm256_loadu_pd(acc + m), v));
  }
  for (; m < n; ++m) acc[m] /= divisor;
}

void Avx2RowAddMustLinkScatter(double* acc_a, double* acc_b, const double* x,
                               const double* y, double half_weight,
                               size_t n) {
  const __m256d hw = _mm256_set1_pd(half_weight);
  const __m256d half = _mm256_set1_pd(0.5);
  size_t m = 0;
  for (; m + 4 <= n; m += 4) {
    const __m256d e =
        _mm256_sub_pd(_mm256_loadu_pd(x + m), _mm256_loadu_pd(y + m));
    const __m256d t = _mm256_mul_pd(_mm256_mul_pd(hw, e), e);
    const __m256d h = _mm256_mul_pd(half, t);
    _mm256_storeu_pd(acc_a + m, _mm256_add_pd(_mm256_loadu_pd(acc_a + m), h));
    _mm256_storeu_pd(acc_b + m, _mm256_add_pd(_mm256_loadu_pd(acc_b + m), h));
  }
  for (; m < n; ++m) {
    const double e = x[m] - y[m];
    const double t = half_weight * e * e;
    acc_a[m] += 0.5 * t;
    acc_b[m] += 0.5 * t;
  }
}

// std::max(0.0, v) is (0.0 < v) ? v : 0.0; vmaxpd(v, 0) is
// (v > 0) ? v : 0 — the same choice for every input, NaN and -0.0
// included (both give +0.0). The scalar tails spell the std::max and
// std::clamp selections out: this unit is built with -mavx2, and an
// out-of-line std:: template instantiated here could be the copy the
// linker keeps for the whole program.
inline double MaxOfZeroAnd(double v) { return 0.0 < v ? v : 0.0; }

void Avx2RowAddCannotLinkScatter(double* acc, const double* x,
                                 const double* y, const double* range,
                                 double weight, size_t n) {
  const __m256d vw = _mm256_set1_pd(weight);
  const __m256d zero = _mm256_setzero_pd();
  size_t m = 0;
  for (; m + 4 <= n; m += 4) {
    const __m256d e =
        _mm256_sub_pd(_mm256_loadu_pd(x + m), _mm256_loadu_pd(y + m));
    const __m256d v =
        _mm256_sub_pd(_mm256_loadu_pd(range + m), _mm256_mul_pd(e, e));
    _mm256_storeu_pd(
        acc + m, _mm256_add_pd(_mm256_loadu_pd(acc + m),
                               _mm256_mul_pd(vw, _mm256_max_pd(v, zero))));
  }
  for (; m < n; ++m) {
    const double e = x[m] - y[m];
    acc[m] += weight * MaxOfZeroAnd(range[m] - e * e);
  }
}

// std::max(d, lo) is (d < lo) ? lo : d == vmaxpd(lo, d); std::clamp(q,
// lo, hi) is (q < lo) ? lo : (hi < q) ? hi : q == vminpd(hi, vmaxpd(lo,
// q)). vmaxpd/vminpd return their second operand when the compare is
// false, so a NaN passes through exactly as in the scalar form.
void Avx2RowClampedRatio(double* out, double num, const double* den,
                         double lo, double hi, size_t n) {
  const __m256d vnum = _mm256_set1_pd(num);
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  size_t m = 0;
  for (; m + 4 <= n; m += 4) {
    const __m256d q =
        _mm256_div_pd(vnum, _mm256_max_pd(vlo, _mm256_loadu_pd(den + m)));
    _mm256_storeu_pd(out + m, _mm256_min_pd(vhi, _mm256_max_pd(vlo, q)));
  }
  for (; m < n; ++m) {
    const double q = num / (den[m] < lo ? lo : den[m]);
    out[m] = q < lo ? lo : (hi < q ? hi : q);
  }
}

const DistanceKernels kAvx2FixedLane = {
    .squared_euclidean = Avx2SquaredEuclidean,
    .weighted_squared_euclidean = Avx2WeightedSquaredEuclidean,
    .squared_euclidean_x4 = Avx2SquaredEuclideanX4,
    .weighted_squared_euclidean_x4 = Avx2WeightedSquaredEuclideanX4,
    .weighted_squared_euclidean_rows = Avx2WeightedSquaredEuclideanRows,
};

const RowKernels kAvx2RowKernels = {
    Avx2RowSumRows,
    Avx2RowSumSquaredDiffs,
    Avx2RowMinMaxRows,
    Avx2RowDivide,
    Avx2RowAddMustLinkScatter,
    Avx2RowAddCannotLinkScatter,
    Avx2RowClampedRatio,
};

}  // namespace

const DistanceKernels& Avx2FixedLaneKernels() { return kAvx2FixedLane; }

const RowKernels& Avx2RowKernels() { return kAvx2RowKernels; }

}  // namespace cvcp::internal

#endif  // CVCP_HAVE_AVX2
