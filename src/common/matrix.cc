#include "common/matrix.h"

namespace cvcp {

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  Matrix m;
  for (const auto& row : rows) {
    m.AppendRow(row);
  }
  return m;
}

void Matrix::SetRow(size_t r, std::span<const double> values) {
  CVCP_CHECK_LT(r, rows_);
  CVCP_CHECK_EQ(values.size(), cols_);
  std::copy(values.begin(), values.end(), data_.begin() + r * cols_);
}

void Matrix::AppendRow(std::span<const double> values) {
  if (rows_ == 0 && cols_ == 0) {
    cols_ = values.size();
  }
  CVCP_CHECK_EQ(values.size(), cols_);
  data_.insert(data_.end(), values.begin(), values.end());
  ++rows_;
}

std::vector<double> Matrix::ColumnMeans() const {
  if (rows_ == 0) return {};
  std::vector<double> means(cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = data_.data() + r * cols_;
    for (size_t c = 0; c < cols_; ++c) means[c] += row[c];
  }
  for (double& m : means) m /= static_cast<double>(rows_);
  return means;
}

std::vector<double> Matrix::ColumnMeans(
    std::span<const size_t> row_indices) const {
  std::vector<double> means(cols_, 0.0);
  if (row_indices.empty()) return means;
  for (size_t r : row_indices) {
    CVCP_CHECK_LT(r, rows_);
    const double* row = data_.data() + r * cols_;
    for (size_t c = 0; c < cols_; ++c) means[c] += row[c];
  }
  for (double& m : means) m /= static_cast<double>(row_indices.size());
  return means;
}

}  // namespace cvcp
