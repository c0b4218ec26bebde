// Symmetric positive-definite solves and least squares.
//
// OLS and IRLS both reduce to solving (X^T W X) b = X^T W y; we factor the
// Gram matrix with Cholesky and fall back to a progressively-ridged system
// when columns are (near-)collinear — which happens routinely in unit
// tables, e.g. when a peer-treatment embedding is constant within a stratum.
//
// SolveNormalEquations takes X'X and X'y already formed, so a caller that
// accumulates them straight from its columns (SolveOls, stats/ols.h) can
// keep and carry on the sums and solve any subset of their columns.
// SolveLeastSquares is the design-matrix form,
// SolveNormalEquations(X.Gram(), X.TransposeVec(y)); it stays as the
// reference FitOls is tested against bit for bit.

#ifndef CARL_LINALG_SOLVE_H_
#define CARL_LINALG_SOLVE_H_

#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"

namespace carl {

/// In-place Cholesky factorization A = L L^T of an SPD matrix.
/// Returns the lower-triangular factor, or InvalidArgument if A is not
/// positive definite (within tolerance).
Result<Matrix> Cholesky(const Matrix& a);

/// Solves A x = b for SPD A via Cholesky.
Result<std::vector<double>> CholeskySolve(const Matrix& a,
                                          const std::vector<double>& b);

/// Solves the normal equations gram * b = xty, adding an escalating ridge
/// (up to `max_ridge`, relative to the largest diagonal entry) while the
/// Cholesky factorization fails. Returns b, of length gram.rows().
Result<std::vector<double>> SolveNormalEquations(const Matrix& gram,
                                                 const std::vector<double>& xty,
                                                 double max_ridge = 1e-4);

/// Least squares: minimizes ||X b - y||^2 via normal equations, adding an
/// escalating ridge (up to `max_ridge`) if the Gram matrix is singular.
/// Returns the coefficient vector of length X.cols().
Result<std::vector<double>> SolveLeastSquares(const Matrix& x,
                                              const std::vector<double>& y,
                                              double max_ridge = 1e-4);

}  // namespace carl

#endif  // CARL_LINALG_SOLVE_H_
