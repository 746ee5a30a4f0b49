#ifndef CVCP_COMMON_MATRIX_H_
#define CVCP_COMMON_MATRIX_H_

/// \file
/// Dense row-major matrix of doubles: the numeric substrate for datasets,
/// centroids, and per-cluster metric weights. Deliberately minimal — no
/// expression templates, no BLAS; the paper's workloads are n <= a few
/// hundred and d <= 144, where simple contiguous loops are fastest anyway.

#include <cstddef>
#include <span>
#include <vector>

#include "common/check.h"

namespace cvcp {

/// Row-major dense matrix.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix filled with `init`.
  Matrix(size_t rows, size_t cols, double init = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  /// Builds from a list of equally-sized rows.
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& At(size_t r, size_t c) {
    CVCP_DCHECK_LT(r, rows_);
    CVCP_DCHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double At(size_t r, size_t c) const {
    CVCP_DCHECK_LT(r, rows_);
    CVCP_DCHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  double& operator()(size_t r, size_t c) { return At(r, c); }
  double operator()(size_t r, size_t c) const { return At(r, c); }

  /// Read-only view of row r.
  std::span<const double> Row(size_t r) const {
    CVCP_DCHECK_LT(r, rows_);
    return {data_.data() + r * cols_, cols_};
  }

  /// Mutable view of row r.
  std::span<double> MutableRow(size_t r) {
    CVCP_DCHECK_LT(r, rows_);
    return {data_.data() + r * cols_, cols_};
  }

  /// Overwrites row r with `values` (size must equal cols()).
  void SetRow(size_t r, std::span<const double> values);

  /// Appends one row (size must equal cols(), unless the matrix is empty,
  /// in which case the row defines cols()).
  void AppendRow(std::span<const double> values);

  /// Column-wise mean of all rows; empty matrix yields an empty vector.
  std::vector<double> ColumnMeans() const;

  /// Column-wise mean over a subset of row indices.
  std::vector<double> ColumnMeans(std::span<const size_t> row_indices) const;

  const std::vector<double>& data() const { return data_; }

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

}  // namespace cvcp

#endif  // CVCP_COMMON_MATRIX_H_
