#include "common/matrix.h"

#include <gtest/gtest.h>

namespace cvcp {
namespace {

TEST(MatrixTest, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, ConstructWithFill) {
  Matrix m(3, 4, 2.5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(m.At(r, c), 2.5);
  }
}

TEST(MatrixTest, FromRowsRoundTrip) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m.At(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
}

TEST(MatrixTest, RowViewReflectsData) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  auto row = m.Row(1);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_DOUBLE_EQ(row[0], 4.0);
  EXPECT_DOUBLE_EQ(row[2], 6.0);
}

TEST(MatrixTest, MutableRowWrites) {
  Matrix m(2, 2, 0.0);
  auto row = m.MutableRow(0);
  row[1] = 9.0;
  EXPECT_DOUBLE_EQ(m.At(0, 1), 9.0);
}

TEST(MatrixTest, SetRow) {
  Matrix m(2, 3, 0.0);
  m.SetRow(1, std::vector<double>{7, 8, 9});
  EXPECT_DOUBLE_EQ(m.At(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 9.0);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
}

TEST(MatrixTest, AppendRowDefinesColsOnEmpty) {
  Matrix m;
  m.AppendRow(std::vector<double>{1, 2, 3});
  m.AppendRow(std::vector<double>{4, 5, 6});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 6.0);
}

TEST(MatrixTest, ColumnMeansAllRows) {
  Matrix m = Matrix::FromRows({{1, 10}, {3, 20}});
  std::vector<double> means = m.ColumnMeans();
  ASSERT_EQ(means.size(), 2u);
  EXPECT_DOUBLE_EQ(means[0], 2.0);
  EXPECT_DOUBLE_EQ(means[1], 15.0);
}

TEST(MatrixTest, ColumnMeansSubset) {
  Matrix m = Matrix::FromRows({{1, 10}, {3, 20}, {5, 60}});
  std::vector<size_t> idx = {0, 2};
  std::vector<double> means = m.ColumnMeans(idx);
  EXPECT_DOUBLE_EQ(means[0], 3.0);
  EXPECT_DOUBLE_EQ(means[1], 35.0);
}

TEST(MatrixTest, ColumnMeansEmptyMatrix) {
  Matrix m;
  EXPECT_TRUE(m.ColumnMeans().empty());
}

TEST(MatrixTest, EqualityComparesShapeAndData) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = Matrix::FromRows({{1, 2}});
  Matrix c = Matrix::FromRows({{1}, {2}});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(MatrixDeathTest, FromRowsRejectsRaggedInput) {
  EXPECT_DEATH(Matrix::FromRows({{1, 2}, {3, 4, 5}}), "size");
  EXPECT_DEATH(Matrix::FromRows({{1, 2, 3}, {4}}), "size");
}

TEST(MatrixDeathTest, AppendRowRejectsWrongWidth) {
  Matrix m = Matrix::FromRows({{1, 2}});
  EXPECT_DEATH(m.AppendRow(std::vector<double>{1, 2, 3}), "size");
}

TEST(MatrixDeathTest, SetRowRejectsWrongWidth) {
  Matrix m(2, 3);
  EXPECT_DEATH(m.SetRow(0, std::vector<double>{1, 2}), "size");
  EXPECT_DEATH(m.SetRow(0, std::vector<double>{1, 2, 3, 4}), "size");
}

TEST(MatrixDeathTest, SetRowRejectsOutOfRangeRow) {
  Matrix m(2, 3);
  EXPECT_DEATH(m.SetRow(2, std::vector<double>{1, 2, 3}), "rows_");
}

}  // namespace
}  // namespace cvcp
