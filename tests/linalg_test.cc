// Unit tests for src/linalg: matrix ops, Cholesky, least squares.

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/matrix.h"
#include "linalg/solve.h"

namespace carl {
namespace {

TEST(MatrixTest, FromRowsAndAccess) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 6.0);
  m.At(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 7.0);
}

TEST(MatrixTest, TransposeMatMul) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix ab = a.MatMul(b);
  EXPECT_DOUBLE_EQ(ab.At(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(ab.At(1, 1), 50.0);
  Matrix at = a.Transpose();
  EXPECT_DOUBLE_EQ(at.At(0, 1), 3.0);
}

TEST(MatrixTest, GramMatchesTransposeProduct) {
  Matrix x = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Matrix g = x.Gram();
  Matrix expected = x.Transpose().MatMul(x);
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(g.At(i, j), expected.At(i, j), 1e-12);
    }
  }
}

TEST(MatrixTest, MatVecAndTransposeVec) {
  Matrix x = Matrix::FromRows({{1, 0}, {0, 2}, {3, 3}});
  std::vector<double> v{2, 1};
  std::vector<double> xv = x.MatVec(v);
  EXPECT_DOUBLE_EQ(xv[0], 2.0);
  EXPECT_DOUBLE_EQ(xv[1], 2.0);
  EXPECT_DOUBLE_EQ(xv[2], 9.0);
  std::vector<double> w{1, 1, 1};
  std::vector<double> xtw = x.TransposeVec(w);
  EXPECT_DOUBLE_EQ(xtw[0], 4.0);
  EXPECT_DOUBLE_EQ(xtw[1], 5.0);
}

TEST(MatrixTest, IdentityRowCol) {
  Matrix id = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(id.At(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(id.At(0, 2), 0.0);
  EXPECT_EQ(id.Row(1)[1], 1.0);
  EXPECT_EQ(id.Col(0)[0], 1.0);
}

TEST(SolveTest, CholeskyRecomposes) {
  // A = L L^T for a known SPD matrix.
  Matrix a = Matrix::FromRows({{4, 2}, {2, 3}});
  Result<Matrix> l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  Matrix recomposed = l->MatMul(l->Transpose());
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(recomposed.At(i, j), a.At(i, j), 1e-12);
    }
  }
}

TEST(SolveTest, CholeskyRejectsIndefinite) {
  Matrix a = Matrix::FromRows({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  EXPECT_FALSE(Cholesky(a).ok());
}

TEST(SolveTest, CholeskySolveExact) {
  Matrix a = Matrix::FromRows({{4, 2}, {2, 3}});
  Result<std::vector<double>> x = CholeskySolve(a, {10, 9});
  ASSERT_TRUE(x.ok());
  // Verify A x = b.
  EXPECT_NEAR(4 * (*x)[0] + 2 * (*x)[1], 10.0, 1e-10);
  EXPECT_NEAR(2 * (*x)[0] + 3 * (*x)[1], 9.0, 1e-10);
}

TEST(SolveTest, LeastSquaresRecoversLine) {
  // y = 3 + 2x exactly.
  Matrix x(5, 2);
  std::vector<double> y(5);
  for (size_t i = 0; i < 5; ++i) {
    x.At(i, 0) = 1.0;
    x.At(i, 1) = static_cast<double>(i);
    y[i] = 3.0 + 2.0 * static_cast<double>(i);
  }
  Result<std::vector<double>> b = SolveLeastSquares(x, y);
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR((*b)[0], 3.0, 1e-9);
  EXPECT_NEAR((*b)[1], 2.0, 1e-9);
}

TEST(SolveTest, LeastSquaresHandlesCollinearColumns) {
  // Second column duplicates the first; ridge fallback must not blow up.
  Matrix x(4, 2);
  std::vector<double> y{1, 2, 3, 4};
  for (size_t i = 0; i < 4; ++i) {
    x.At(i, 0) = static_cast<double>(i + 1);
    x.At(i, 1) = static_cast<double>(i + 1);
  }
  Result<std::vector<double>> b = SolveLeastSquares(x, y);
  ASSERT_TRUE(b.ok());
  // Combined effect must still reproduce y = x.
  EXPECT_NEAR((*b)[0] + (*b)[1], 1.0, 1e-3);
}

TEST(SolveTest, DotAndNorm) {
  EXPECT_DOUBLE_EQ(Dot({1, 2}, {3, 4}), 11.0);
  EXPECT_DOUBLE_EQ(Norm2({3, 4}), 5.0);
}

}  // namespace
}  // namespace carl
