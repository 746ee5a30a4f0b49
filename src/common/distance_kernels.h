#ifndef CVCP_COMMON_DISTANCE_KERNELS_H_
#define CVCP_COMMON_DISTANCE_KERNELS_H_

/// \file
/// The low-level distance kernels behind common/distance.h: one table of
/// raw-pointer fixed-lane inner loops per implementation (AVX2 on x86-64,
/// portable scalar everywhere) and one of row kernels (MPCKMeans' M-step
/// loops), plus the dispatch that picks AVX2 when this CPU supports it,
/// once per process. These tables are the engine's only numerics.
///
/// ## The fixed-lane contract
///
/// Both fixed-lane implementations — the portable scalar reference and
/// the AVX2 one — commit to the identical floating-point evaluation
/// order, so their results are bitwise equal and every report is the
/// same on every host:
///
///   * 8 virtual accumulator lanes; lane k sums the per-element terms at
///     indices ≡ k (mod 8), in increasing index order;
///   * the tail (n mod 8 trailing elements) is accumulated into lanes
///     0..(n mod 8 - 1) after the full blocks, in index order — exactly
///     where those indices' lanes would have put them;
///   * lanes reduce through one fixed tree:
///         m_j = lane_j + lane_{j+4}          (j = 0..3)
///         result = (m_0 + m_2) + (m_1 + m_3)
///     chosen because it is the natural AVX2 butterfly (256-bit add of
///     the two accumulator registers, then the 128-bit halves, then one
///     scalar add); the portable reference implements the same tree;
///   * no FMA anywhere (fusing mul+add changes the rounding of every
///     term) — the kernel translation units are compiled with
///     `-ffp-contract=off` so the compiler cannot introduce it either.
///
/// The kernels are pure functions of their inputs: thread count, tiling,
/// caching, and hardware never change a bit.

#include <cstddef>

namespace cvcp {

/// One set of distance inner loops. All pointers are non-null; vectors
/// are `n` contiguous doubles. `weighted_squared_euclidean` is the
/// diagonal-Mahalanobis form sum_m w[m]*(a[m]-b[m])^2.
struct DistanceKernels {
  double (*squared_euclidean)(const double* a, const double* b, size_t n);
  double (*weighted_squared_euclidean)(const double* a, const double* b,
                                       const double* w, size_t n);
  /// Strided batch form: out[k] = squared_euclidean(a, b + k*stride, n)
  /// for k = 0..3. Each of the four pairs is evaluated with exactly the
  /// single-pair op sequence — the batch exists so the matrix build can
  /// run four independent accumulator chains at once (the single-pair
  /// kernel is latency-bound on its lane adds) and reuse the `a` loads.
  void (*squared_euclidean_x4)(const double* a, const double* b, size_t stride,
                               size_t n, double out[4]);
  /// Gathered batch of the weighted form: out[k] =
  /// weighted_squared_euclidean(rows[k], b, w, n) for k = 0..3 — four
  /// rows at unrelated addresses (MPCKMeans' objects) against one `b`
  /// (a centroid) under one weight row. Each pair keeps the single-pair
  /// lane order.
  void (*weighted_squared_euclidean_x4)(const double* const rows[4],
                                        const double* b, const double* w,
                                        size_t n, double out[4]);
  /// One pair under `rows` weight rows: out[r] =
  /// weighted_squared_euclidean(a, b, w + r * w_stride, n) for
  /// r = 0..rows-1 (an MPCKMeans must-link under every cluster's metric).
  /// The squared differences are formed once per 8-element block for up
  /// to four rows at a time; each row keeps the single-pair lane order.
  void (*weighted_squared_euclidean_rows)(const double* a, const double* b,
                                          const double* w, size_t w_stride,
                                          size_t rows, size_t n, double* out);
};

/// Per-dimension row loops — the setup and M-step of MPCKMeans. Each
/// output element is its own accumulator and receives the same IEEE
/// operations in the same order in every implementation, so the
/// dispatched (AVX2) table and the portable one are bitwise equal. `rows`
/// holds `count` pointers to rows of `n` contiguous doubles; the rows are
/// consumed in array order. Outputs may not alias inputs except where
/// stated.
struct RowKernels {
  /// out[m] = (((+0.0 + rows[0][m]) + rows[1][m]) + ...).
  void (*sum_rows)(double* out, const double* const* rows, size_t count,
                   size_t n);
  /// out[m] = +0.0 + e_0 * e_0 + e_1 * e_1 + ... (left to right) with
  /// e_r = rows[r][m] - mu[m].
  void (*sum_squared_diffs)(double* out, const double* const* rows,
                            size_t count, const double* mu, size_t n);
  /// For r in order: lo[m] = std::min(lo[m], rows[r][m]) and
  /// hi[m] = std::max(hi[m], rows[r][m]).
  void (*min_max_rows)(double* lo, double* hi, const double* const* rows,
                       size_t count, size_t n);
  /// acc[m] /= divisor (a true division, not a reciprocal multiply).
  void (*divide)(double* acc, double divisor, size_t n);
  /// With e = x[m] - y[m] and t = (half_weight * e) * e:
  /// acc_a[m] += 0.5 * t and acc_b[m] += 0.5 * t (acc_a != acc_b).
  void (*add_must_link_scatter)(double* acc_a, double* acc_b, const double* x,
                                const double* y, double half_weight,
                                size_t n);
  /// With e = x[m] - y[m]:
  /// acc[m] += weight * std::max(0.0, range[m] - e * e).
  void (*add_cannot_link_scatter)(double* acc, const double* x,
                                  const double* y, const double* range,
                                  double weight, size_t n);
  /// out[m] = std::clamp(num / std::max(den[m], lo), lo, hi), NaN kept.
  void (*clamped_ratio)(double* out, double num, const double* den, double lo,
                        double hi, size_t n);
};

/// The dispatched fixed-lane table: AVX2 when the CPU supports it, the
/// portable reference otherwise — bitwise-identical either way. Resolved
/// once per process.
const DistanceKernels& GetDistanceKernels();

/// The portable scalar fixed-lane reference — the pinning oracle the
/// equivalence tests compare the AVX2 table against.
const DistanceKernels& FixedLaneKernelsPortable();

/// Which fixed-lane implementation dispatch selected on this machine:
/// "avx2" or "portable".
const char* DistanceKernelArch();

/// The dispatched row-update table (AVX2 when the CPU has it, the
/// portable loops otherwise), resolved once per process.
const RowKernels& GetRowKernels();

/// The portable row-update loops — the pin for the dispatched table.
const RowKernels& RowKernelsPortable();

/// The fixed-lane virtual accumulator width (tests sweep vector lengths
/// 0..2*width+3 to pin the tail handling).
inline constexpr size_t kFixedLaneWidth = 8;

}  // namespace cvcp

#endif  // CVCP_COMMON_DISTANCE_KERNELS_H_
