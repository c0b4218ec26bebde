#include "linalg/solve.h"

#include <cmath>

#include "common/logging.h"

namespace carl {

Result<Matrix> Cholesky(const Matrix& a) {
  const size_t n = a.rows();
  if (a.cols() != n) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  Matrix l(n, n);
  for (size_t j = 0; j < n; ++j) {
    double diag = a.At(j, j);
    for (size_t k = 0; k < j; ++k) diag -= l.At(j, k) * l.At(j, k);
    if (!(diag > 0.0) || !std::isfinite(diag)) {
      return Status::InvalidArgument("matrix is not positive definite");
    }
    double ljj = std::sqrt(diag);
    l.At(j, j) = ljj;
    for (size_t i = j + 1; i < n; ++i) {
      double v = a.At(i, j);
      for (size_t k = 0; k < j; ++k) v -= l.At(i, k) * l.At(j, k);
      l.At(i, j) = v / ljj;
    }
  }
  return l;
}

namespace {

// Solves L y = b then L^T x = y.
std::vector<double> CholeskyBackSubstitute(const Matrix& l,
                                           const std::vector<double>& b) {
  const size_t n = l.rows();
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (size_t k = 0; k < i; ++k) v -= l.At(i, k) * y[k];
    y[i] = v / l.At(i, i);
  }
  std::vector<double> x(n);
  for (size_t ii = n; ii-- > 0;) {
    double v = y[ii];
    for (size_t k = ii + 1; k < n; ++k) v -= l.At(k, ii) * x[k];
    x[ii] = v / l.At(ii, ii);
  }
  return x;
}

}  // namespace

Result<std::vector<double>> CholeskySolve(const Matrix& a,
                                          const std::vector<double>& b) {
  if (b.size() != a.rows()) {
    return Status::InvalidArgument("CholeskySolve size mismatch");
  }
  CARL_ASSIGN_OR_RETURN(Matrix l, Cholesky(a));
  return CholeskyBackSubstitute(l, b);
}

Result<std::vector<double>> SolveNormalEquations(const Matrix& gram,
                                                 const std::vector<double>& xty,
                                                 double max_ridge) {
  if (gram.rows() == 0) {
    return Status::InvalidArgument("SolveNormalEquations: no columns");
  }
  if (gram.cols() != gram.rows() || xty.size() != gram.rows()) {
    return Status::InvalidArgument("SolveNormalEquations size mismatch");
  }
  // Scale-aware ridge escalation: start tiny relative to the largest
  // diagonal entry, multiply by 10 until the factorization succeeds.
  double max_diag = 0.0;
  for (size_t i = 0; i < gram.rows(); ++i) {
    max_diag = std::max(max_diag, std::abs(gram.At(i, i)));
  }
  if (max_diag == 0.0) max_diag = 1.0;

  double ridge = 0.0;
  for (int attempt = 0; attempt < 12; ++attempt) {
    Matrix regularized = gram;
    for (size_t i = 0; i < gram.rows(); ++i) {
      regularized.At(i, i) += ridge * max_diag;
    }
    Result<std::vector<double>> solved = CholeskySolve(regularized, xty);
    if (solved.ok()) return solved;
    ridge = (ridge == 0.0) ? 1e-12 : ridge * 10.0;
    if (ridge > max_ridge) break;
  }
  return Status::InvalidArgument(
      "least squares system is singular beyond the ridge budget");
}

Result<std::vector<double>> SolveLeastSquares(const Matrix& x,
                                              const std::vector<double>& y,
                                              double max_ridge) {
  if (y.size() != x.rows()) {
    return Status::InvalidArgument("SolveLeastSquares: |y| != rows(X)");
  }
  if (x.cols() == 0) {
    return Status::InvalidArgument("SolveLeastSquares: X has no columns");
  }
  return SolveNormalEquations(x.Gram(), x.TransposeVec(y), max_ridge);
}

}  // namespace carl
