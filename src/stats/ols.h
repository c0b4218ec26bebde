// Ordinary least squares with named coefficients — the regression
// estimator behind the relational adjustment formula (paper eq. 33: the
// conditional expectation is a regression function).
//
// FitOls builds no n x p design matrix: it forms X'X and X'y once, straight
// from the table's column pointers (the intercept as a ones column), and
// hands the same X'X to SolveNormalEquations and to SpdInverse. Its
// results are bit-identical to the design-matrix path (SolveLeastSquares,
// Matrix::MatVec, SpdInverse(X.Gram())) because every sum keeps that
// path's order: each X'X and X'y entry sums over rows in row order,
// leaving out the rows where x_i (X'X entry (i, j), i <= j) or y (X'y) is
// 0, and each fitted value adds x_c[r] * b_c in column order from 0.0.

#ifndef CARL_STATS_OLS_H_
#define CARL_STATS_OLS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "relational/flat_table.h"

namespace carl {

struct OlsFit {
  /// Coefficient names; "(intercept)" first when an intercept was added.
  std::vector<std::string> names;
  std::vector<double> coefficients;
  /// Standard errors (NaN when the Gram inverse was unavailable).
  std::vector<double> std_errors;
  /// Columns dropped for being (near-)constant.
  std::vector<std::string> dropped;
  double sigma2 = 0.0;
  double r_squared = 0.0;
  size_t n = 0;

  /// Coefficient by name; 0.0 with ok()==false semantics avoided — returns
  /// NotFound if the column was dropped or never included.
  Result<double> Coefficient(const std::string& name) const;
  /// Coefficient by name, or `fallback` when the column was dropped.
  double CoefficientOr(const std::string& name, double fallback) const;
};

/// SampleVariance of each of the `n`-row columns `cols`, bit for bit:
/// four columns per pass over the rows, each column's sum and squared-
/// deviation sum in its own accumulator, in row order. FitOls drops the
/// columns whose variance is below 1e-12.
std::vector<double> SampleVariances(const std::vector<const double*>& cols,
                                    size_t n);

/// Fits y ~ [1] + x_cols on `table`. Near-constant columns (variance below
/// 1e-12) are dropped and reported. Fails if no usable column remains or
/// the system is singular beyond the solver's ridge budget.
Result<OlsFit> FitOls(const FlatTable& table, const std::string& y_col,
                      const std::vector<std::string>& x_cols,
                      bool add_intercept = true);

}  // namespace carl

#endif  // CARL_STATS_OLS_H_
