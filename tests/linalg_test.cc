// Tests for src/linalg: CSR sparse matrices, dense matrices,
// rank / row-space utilities.

#include <gtest/gtest.h>

#include "common/prng.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse_matrix.h"

namespace pme::linalg {
namespace {

TEST(SparseMatrixTest, FromDenseDropsZeros) {
  auto m = SparseMatrix::FromDense({{0.0, 5.0, 0.0}, {-1.0, 0.0, 0.0}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_EQ(m.row_offsets(), (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(m.col_indices(), (std::vector<uint32_t>{1, 0}));
  EXPECT_DOUBLE_EQ(m.At(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 0.0);
}

TEST(SparseMatrixTest, MultiplyMatchesDense) {
  std::vector<std::vector<double>> dense = {
      {1.0, 0.0, 2.0}, {0.0, 3.0, 0.0}, {4.0, 5.0, 6.0}, {0.0, 0.0, 0.0}};
  SparseMatrix m = SparseMatrix::FromDense(dense);
  std::vector<double> x = {1.0, -1.0, 2.0};
  std::vector<double> y;
  m.Multiply(x, y);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], -3.0);
  EXPECT_DOUBLE_EQ(y[2], 11.0);
  EXPECT_DOUBLE_EQ(y[3], 0.0);
}

TEST(SparseMatrixTest, TransposeMultiplyMatchesDense) {
  std::vector<std::vector<double>> dense = {{1.0, 2.0}, {3.0, 4.0},
                                            {5.0, 6.0}};
  SparseMatrix m = SparseMatrix::FromDense(dense);
  std::vector<double> x = {1.0, 0.5, -1.0};
  std::vector<double> y;
  m.TransposeMultiply(x, y);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 1.0 + 1.5 - 5.0);
  EXPECT_DOUBLE_EQ(y[1], 2.0 + 2.0 - 6.0);
}

TEST(SparseMatrixTest, RandomizedAgreementWithDense) {
  Prng prng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t rows = 1 + prng.NextBounded(12);
    const size_t cols = 1 + prng.NextBounded(12);
    std::vector<std::vector<double>> dense(rows,
                                           std::vector<double>(cols, 0.0));
    for (auto& row : dense) {
      for (auto& v : row) {
        if (prng.NextDouble() < 0.4) v = prng.NextDouble(-2.0, 2.0);
      }
    }
    SparseMatrix m = SparseMatrix::FromDense(dense);
    std::vector<double> x(cols);
    for (auto& v : x) v = prng.NextDouble(-1.0, 1.0);
    std::vector<double> y;
    m.Multiply(x, y);
    for (size_t r = 0; r < rows; ++r) {
      double expect = 0.0;
      for (size_t c = 0; c < cols; ++c) expect += dense[r][c] * x[c];
      EXPECT_NEAR(y[r], expect, 1e-12);
    }
  }
}

TEST(SparseMatrixTest, SubmatrixSelectsAndReorders) {
  SparseMatrix m = SparseMatrix::FromDense(
      {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}, {7.0, 8.0, 9.0}});
  auto sub = m.Submatrix({2, 0}, {1, 2}).ValueOrDie();
  EXPECT_EQ(sub.rows(), 2u);
  EXPECT_EQ(sub.cols(), 2u);
  EXPECT_DOUBLE_EQ(sub.At(0, 0), 8.0);
  EXPECT_DOUBLE_EQ(sub.At(0, 1), 9.0);
  EXPECT_DOUBLE_EQ(sub.At(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(sub.At(1, 1), 3.0);
}

TEST(SparseMatrixTest, FromCsrAdoptsCanonicalRowsAndRejectsOthers) {
  // [[1 0 2], [0 0 0], [0 3 0]]
  auto m = SparseMatrix::FromCsr(3, 3, {0, 2, 2, 3}, {0, 2, 1},
                                 {1.0, 2.0, 3.0})
               .ValueOrDie();
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_EQ(m.ToDense(), (std::vector<std::vector<double>>{
                             {1.0, 0.0, 2.0}, {0.0, 0.0, 0.0},
                             {0.0, 3.0, 0.0}}));
  const auto code = [](Result<SparseMatrix> r) { return r.status().code(); };
  // Offsets of the wrong length, decreasing, or not ending at nnz.
  EXPECT_EQ(code(SparseMatrix::FromCsr(2, 3, {0, 1}, {0}, {1.0})),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(SparseMatrix::FromCsr(2, 3, {0, 2, 1}, {0, 1}, {1.0, 1.0})),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(SparseMatrix::FromCsr(1, 3, {0, 1}, {0, 1}, {1.0, 1.0})),
            StatusCode::kInvalidArgument);
  // A column out of range, repeated, or out of order.
  EXPECT_EQ(code(SparseMatrix::FromCsr(1, 3, {0, 1}, {3}, {1.0})),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(SparseMatrix::FromCsr(1, 3, {0, 2}, {1, 1}, {1.0, 1.0})),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(SparseMatrix::FromCsr(1, 3, {0, 2}, {2, 0}, {1.0, 1.0})),
            StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------- DenseMatrix

TEST(DenseMatrixTest, MultiplyAndTranspose) {
  DenseMatrix m(2, 3);
  m.At(0, 0) = 1;
  m.At(0, 2) = 2;
  m.At(1, 1) = 3;
  auto y = m.Multiply({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  DenseMatrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t.At(2, 0), 2.0);
}

TEST(DenseMatrixTest, RankOfIdentityAndSingular) {
  DenseMatrix id(3, 3);
  for (size_t i = 0; i < 3; ++i) id.At(i, i) = 1.0;
  EXPECT_EQ(id.Rank(), 3u);

  DenseMatrix sing(3, 3);
  // Row 2 = row 0 + row 1.
  sing.At(0, 0) = 1;
  sing.At(0, 1) = 2;
  sing.At(1, 1) = 1;
  sing.At(1, 2) = 1;
  sing.At(2, 0) = 1;
  sing.At(2, 1) = 3;
  sing.At(2, 2) = 1;
  EXPECT_EQ(sing.Rank(), 2u);
}

TEST(DenseMatrixTest, RowSpaceContains) {
  DenseMatrix m(2, 3);
  m.At(0, 0) = 1;
  m.At(0, 1) = 1;
  m.At(1, 1) = 1;
  m.At(1, 2) = 1;
  EXPECT_TRUE(m.RowSpaceContains({1.0, 2.0, 1.0}));   // row0 + row1
  EXPECT_TRUE(m.RowSpaceContains({1.0, 0.0, -1.0}));  // row0 - row1
  EXPECT_FALSE(m.RowSpaceContains({1.0, 0.0, 0.0}));
}

TEST(DenseMatrixTest, AppendRowGrows) {
  DenseMatrix m(0, 0);
  m.AppendRow({1.0, 2.0});
  m.AppendRow({3.0, 4.0});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 3.0);
}

}  // namespace
}  // namespace pme::linalg
