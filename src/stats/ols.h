// Ordinary least squares with named coefficients — the regression
// estimator behind the relational adjustment formula (paper eq. 33: the
// conditional expectation is a regression function).
//
// One path: sum, then solve. OlsSums holds X'X and X'y of one ordered
// column list as running sums over rows [0, rows); SumProducts carries
// them on from the row they reached, so a fresh sum is a carry-on from
// row 0, and SolveOls solves the normal equations of any ascending subset
// of the columns from their sub-matrix. No n x p design matrix is built.
// Every entry keeps the design-matrix path's order (SolveLeastSquares on
// X, i.e. X.Gram() and X.TransposeVec(y)): X'X entry (i, j), i <= j, sums
// x_i[r] * x_j[r] in row order, leaving out the rows where x_i (the
// earlier column) is 0, and X'y entry c sums y[r] * x_c[r], leaving out
// the rows where y is 0. So a carried-on sum has the bits of a fresh
// one, and a sub-matrix entry the bits of the same entry summed for that
// subset alone, as long as the subset keeps the list's order.
//
// FitOls is the one-table form: drop the near-constant columns, sum the
// intercept and the rest from row 0, solve. It returns the coefficients
// and the dropped columns, all any caller reads.

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
  /// Columns dropped for being (near-)constant.
  std::vector<std::string> dropped;

  /// Coefficient by name; NotFound if the column was dropped or never
  /// included.
  Result<double> Coefficient(const std::string& name) const;
  /// Coefficient by name, or `fallback` when the column was dropped.
  double CoefficientOr(const std::string& name, double fallback) const;
};

/// A column whose sample variance is below this is near-constant: a fit
/// drops it. An exactly constant column has variance 0 at any magnitude.
constexpr double kOlsMinVariance = 1e-12;

/// SampleVariance of each of the `n`-row columns `cols`, bit for bit:
/// four columns per pass over the rows, each column's sum and squared-
/// deviation sum in its own accumulator, in row order; exactly 0 for a
/// constant column (ZeroIfConstant).
std::vector<double> SampleVariances(const std::vector<const double*>& cols,
                                    size_t n);

/// X'X and X'y of one ordered column list, summed over rows [0, rows)
/// (see the file comment for each entry's order).
struct OlsSums {
  size_t rows = 0;
  size_t cols = 0;
  /// cols x cols, row-major; only the entries (i, j) with i <= j hold sums.
  std::vector<double> xtx;
  std::vector<double> xty;

  double XtX(size_t i, size_t j) const { return xtx[i * cols + j]; }
  /// Heap bytes the sums hold.
  size_t bytes() const {
    return (xtx.capacity() + xty.capacity()) * sizeof(double);
  }
};

/// Carries `sums` on over rows [sums->rows, n) of the columns `cols` and
/// of `y`, each at least n rows long; a null column is the ones column
/// (the intercept). A default OlsSums starts at row 0; otherwise `cols`
/// must be the list the sums were started on.
void SumProducts(const std::vector<const double*>& cols, const double* y,
                 size_t n, OlsSums* sums);

/// `sums` with column `cols[at]` inserted at index `at`: the entries of
/// the other columns are copied, and only the new column's own entries
/// (its row and column of X'X, and its X'y entry) are summed, over rows
/// [0, sums.rows). `cols` is the list with the new column in place.
OlsSums InsertColumn(const OlsSums& sums,
                     const std::vector<const double*>& cols, const double* y,
                     size_t at);

/// The least-squares coefficients on the summed columns `keep` (ascending
/// indices): the normal equations of their sub-matrix of X'X and sub-
/// vector of X'y, through SolveNormalEquations (escalating ridge). Fails
/// when `keep` is empty or the system is singular beyond the ridge budget.
Result<std::vector<double>> SolveOls(const OlsSums& sums,
                                     const std::vector<size_t>& keep);

/// Fits y ~ [1] + x_cols on `table` from row 0. Near-constant columns
/// (variance below kOlsMinVariance) are dropped and reported. Fails with
/// fewer than 2 rows, if no usable column remains, or if the system is
/// singular beyond the solver's ridge budget.
Result<OlsFit> FitOls(const FlatTable& table, const std::string& y_col,
                      const std::vector<std::string>& x_cols,
                      bool add_intercept = true);

}  // namespace carl

#endif  // CARL_STATS_OLS_H_
