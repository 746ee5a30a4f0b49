#include "common/distance.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/distance_kernels.h"

namespace cvcp {

double SquaredEuclideanDistance(std::span<const double> a,
                                std::span<const double> b) {
  CVCP_DCHECK_EQ(a.size(), b.size());
  return GetDistanceKernels().squared_euclidean(a.data(), b.data(), a.size());
}

double EuclideanDistance(std::span<const double> a, std::span<const double> b) {
  return std::sqrt(SquaredEuclideanDistance(a, b));
}

double WeightedSquaredEuclidean(std::span<const double> a,
                                std::span<const double> b,
                                std::span<const double> weights) {
  CVCP_DCHECK_EQ(a.size(), b.size());
  CVCP_DCHECK_EQ(a.size(), weights.size());
  return GetDistanceKernels().weighted_squared_euclidean(
      a.data(), b.data(), weights.data(), a.size());
}

DistanceMatrix DistanceMatrix::FromCondensed(size_t n,
                                             std::vector<double> data) {
  CVCP_CHECK_EQ(data.size(), n < 2 ? 0 : n * (n - 1) / 2);
  DistanceMatrix dm;
  dm.n_ = n;
  dm.data_ = std::move(data);
  return dm;
}

namespace {

/// Rows per panel such that two packed panels (row + column) fit in
/// roughly an L2's worth of cache, clamped so tiny dimensions still get
/// tiles coarse enough to amortize task dispatch and huge dimensions
/// still get a few rows per tile.
size_t PanelRows(size_t dims) {
  constexpr size_t kL2Budget = 256 * 1024;  // bytes, both panels together
  const size_t bytes_per_row = std::max<size_t>(dims, 1) * sizeof(double);
  const size_t rows = kL2Budget / (2 * bytes_per_row);
  return std::clamp<size_t>(rows, 16, 512);
}

}  // namespace

DistanceMatrix DistanceMatrix::Compute(const Matrix& points, Metric,
                                       const ExecutionContext& exec_in) {
  // Artifact builds are all-or-nothing: the matrix may be published into
  // the shared DatasetCache / artifact store, where another (non-cancelled)
  // job would consume it, so a live cancel token must never skip tiles.
  // Cancellation promptness comes from the (param, fold) cell boundaries
  // above, not from inside a build.
  ExecutionContext exec = exec_in;
  exec.cancel = CancelToken();
  DistanceMatrix dm;
  const size_t n = points.rows();
  dm.n_ = n;
  if (n < 2) return dm;
  dm.data_.resize(n * (n - 1) / 2);
  double* out = dm.data_.data();

  const DistanceKernels& kernels = GetDistanceKernels();
  const size_t d = points.cols();

  // Upper-triangular tile grid: panel (pi) × panel (pj >= pi). Diagonal
  // tiles compute their own upper triangle. Every tile writes a disjoint
  // set of condensed slots and every pair's value is independent of the
  // tile shape, so the build is bit-identical for any thread count.
  const size_t panel = std::min(PanelRows(d), n);
  const size_t num_panels = (n + panel - 1) / panel;
  std::vector<std::pair<uint32_t, uint32_t>> tiles;
  tiles.reserve(num_panels * (num_panels + 1) / 2);
  for (uint32_t pi = 0; pi < num_panels; ++pi) {
    for (uint32_t pj = pi; pj < num_panels; ++pj) {
      tiles.emplace_back(pi, pj);
    }
  }

  ParallelFor(exec, tiles.size(), [&](size_t t) {
    const auto [pi, pj] = tiles[t];
    const size_t r0 = pi * panel, r1 = std::min(n, r0 + panel);
    const size_t c0 = pj * panel, c1 = std::min(n, c0 + panel);
    // Repack the column panel into a contiguous scratch buffer so the
    // inner loop is a pure kernel sweep over two dense row blocks that
    // stay resident in L2 for the whole tile.
    std::vector<double> col_panel((c1 - c0) * d);
    for (size_t j = c0; j < c1; ++j) {
      const std::span<const double> row = points.Row(j);
      std::copy(row.begin(), row.end(), col_panel.begin() + (j - c0) * d);
    }
    for (size_t i = r0; i < r1; ++i) {
      const size_t j_begin = std::max(i + 1, c0);
      if (j_begin >= c1) continue;
      const double* row_i = points.Row(i).data();
      // CondensedIndex(i, j_begin), then consecutive slots across j.
      size_t idx = i * n - i * (i + 1) / 2 + (j_begin - i - 1);
      const double* col = col_panel.data() + (j_begin - c0) * d;
      size_t j = j_begin;
      // Four packed columns per call: same bits as four single-pair
      // calls, but the batch runs four accumulator chains at once.
      for (; j + 4 <= c1; j += 4, col += 4 * d) {
        double values[4];
        kernels.squared_euclidean_x4(row_i, col, d, d, values);
        for (double value : values) out[idx++] = std::sqrt(value);
      }
      for (; j < c1; ++j, col += d) {
        out[idx++] = std::sqrt(kernels.squared_euclidean(row_i, col, d));
      }
    }
  });
  return dm;
}

}  // namespace cvcp
