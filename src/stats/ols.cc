#include "stats/ols.h"

#include <cmath>
#include <cstdint>
#include <limits>

#include "linalg/matrix.h"
#include "linalg/solve.h"
#include "stats/descriptive.h"

namespace carl {

Result<double> OlsFit::Coefficient(const std::string& name) const {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return coefficients[i];
  }
  return Status::NotFound("no coefficient named " + name);
}

double OlsFit::CoefficientOr(const std::string& name, double fallback) const {
  Result<double> c = Coefficient(name);
  return c.ok() ? *c : fallback;
}

namespace {

// One entry of X'X or X'y: the sum over rows, in row order, of
// skip[r] * other[r], leaving out the rows where skip[r] is 0 — X'X
// entry (i, j), i <= j, skips on column i, as Matrix::Gram does; X'y
// entry c skips on y, as Matrix::TransposeVec does.
struct ProductSum {
  const double* skip;
  const double* other;
  double* out;
};

// Two entries side by side. The skip is a select: the product's bits are
// masked to +0.0, which leaves any running sum unchanged (a sum that
// starts at +0.0 never becomes -0.0), so no branch depends on the data.
using Pair [[gnu::vector_size(16)]] = double;
using PairMask [[gnu::vector_size(16)]] = int64_t;

inline Pair Term(Pair skip, Pair other) {
  return reinterpret_cast<Pair>(reinterpret_cast<PairMask>(skip * other) &
                                reinterpret_cast<PairMask>(skip != 0.0));
}

// Sums every entry over the n rows, four entries per pass in independent
// accumulators; a short last pass repeats its first entry.
void SumProducts(const std::vector<ProductSum>& sums, size_t n) {
  constexpr size_t kLanes = 4;
  for (size_t k = 0; k < sums.size(); k += kLanes) {
    const double* skip[kLanes];
    const double* other[kLanes];
    for (size_t l = 0; l < kLanes; ++l) {
      const ProductSum& e = sums[k + l < sums.size() ? k + l : k];
      skip[l] = e.skip;
      other[l] = e.other;
    }
    Pair lo = {0.0, 0.0};
    Pair hi = {0.0, 0.0};
    for (size_t r = 0; r < n; ++r) {
      lo += Term(Pair{skip[0][r], skip[1][r]}, Pair{other[0][r], other[1][r]});
      hi += Term(Pair{skip[2][r], skip[3][r]}, Pair{other[2][r], other[3][r]});
    }
    const double sum[kLanes] = {lo[0], lo[1], hi[0], hi[1]};
    for (size_t l = 0; l < kLanes && k + l < sums.size(); ++l) {
      *sums[k + l].out = sum[l];
    }
  }
}

}  // namespace

std::vector<double> SampleVariances(const std::vector<const double*>& cols,
                                    size_t n) {
  std::vector<double> variances(cols.size(), 0.0);
  if (n < 2) return variances;
  const double count = static_cast<double>(n);
  constexpr size_t kLanes = 4;
  for (size_t k = 0; k < cols.size(); k += kLanes) {
    const double* col[kLanes];
    for (size_t l = 0; l < kLanes; ++l) {
      col[l] = cols[k + l < cols.size() ? k + l : k];
    }
    Pair lo = {0.0, 0.0};
    Pair hi = {0.0, 0.0};
    for (size_t r = 0; r < n; ++r) {
      lo += Pair{col[0][r], col[1][r]};
      hi += Pair{col[2][r], col[3][r]};
    }
    const Pair mean_lo = lo / count;
    const Pair mean_hi = hi / count;
    lo = Pair{0.0, 0.0};
    hi = Pair{0.0, 0.0};
    for (size_t r = 0; r < n; ++r) {
      const Pair d_lo = Pair{col[0][r], col[1][r]} - mean_lo;
      const Pair d_hi = Pair{col[2][r], col[3][r]} - mean_hi;
      lo += d_lo * d_lo;
      hi += d_hi * d_hi;
    }
    const double sum[kLanes] = {lo[0], lo[1], hi[0], hi[1]};
    for (size_t l = 0; l < kLanes && k + l < cols.size(); ++l) {
      variances[k + l] = sum[l] / static_cast<double>(n - 1);
    }
  }
  return variances;
}

Result<OlsFit> FitOls(const FlatTable& table, const std::string& y_col,
                      const std::vector<std::string>& x_cols,
                      bool add_intercept) {
  CARL_ASSIGN_OR_RETURN(size_t y_idx, table.ColumnIndex(y_col));
  const std::vector<double>& y = table.Column(y_idx);
  const size_t n = y.size();
  if (n < 2) return Status::InvalidArgument("OLS needs at least 2 rows");

  OlsFit fit;
  fit.n = n;
  // The design matrix's columns, intercept first as a ones column.
  std::vector<const double*> cols;
  std::vector<double> ones;
  if (add_intercept) {
    fit.names.push_back("(intercept)");
    ones.assign(n, 1.0);
    cols.push_back(ones.data());
  }
  std::vector<const double*> x;
  x.reserve(x_cols.size());
  for (const std::string& name : x_cols) {
    CARL_ASSIGN_OR_RETURN(size_t idx, table.ColumnIndex(name));
    x.push_back(table.Column(idx).data());
  }
  const std::vector<double> variances = SampleVariances(x, n);
  for (size_t c = 0; c < x_cols.size(); ++c) {
    if (variances[c] < 1e-12) {
      fit.dropped.push_back(x_cols[c]);
      continue;
    }
    fit.names.push_back(x_cols[c]);
    cols.push_back(x[c]);
  }
  const size_t p = fit.names.size();
  if (p == 0) {
    return Status::InvalidArgument("no usable regressors (all constant)");
  }

  // X'X (upper triangle, then mirrored) and X'y in one set of passes.
  Matrix gram(p, p);
  std::vector<double> xty(p, 0.0);
  std::vector<ProductSum> sums;
  sums.reserve(p * (p + 1) / 2 + p);
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = i; j < p; ++j) {
      sums.push_back(ProductSum{cols[i], cols[j], &gram.At(i, j)});
    }
  }
  for (size_t c = 0; c < p; ++c) {
    sums.push_back(ProductSum{y.data(), cols[c], &xty[c]});
  }
  SumProducts(sums, n);
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j < i; ++j) gram.At(i, j) = gram.At(j, i);
  }

  CARL_ASSIGN_OR_RETURN(fit.coefficients, SolveNormalEquations(gram, xty));

  // Residual variance and R^2. Each fitted value adds x_c[r] * b_c in
  // column order from 0.0, as Matrix::MatVec does.
  std::vector<double> fitted(n, 0.0);
  for (size_t c = 0; c < p; ++c) {
    const double* x = cols[c];
    const double b = fit.coefficients[c];
    for (size_t r = 0; r < n; ++r) fitted[r] += x[r] * b;
  }
  double rss = 0.0;
  for (size_t r = 0; r < n; ++r) {
    double e = y[r] - fitted[r];
    rss += e * e;
  }
  double mean_y = Mean(y);
  double tss = 0.0;
  for (size_t r = 0; r < n; ++r) tss += (y[r] - mean_y) * (y[r] - mean_y);
  size_t df = n > p ? n - p : 1;
  fit.sigma2 = rss / static_cast<double>(df);
  fit.r_squared = tss > 0.0 ? 1.0 - rss / tss : 0.0;

  // Standard errors from sigma^2 (X'X)^-1.
  fit.std_errors.assign(p, std::numeric_limits<double>::quiet_NaN());
  Result<Matrix> inv = SpdInverse(gram);
  if (inv.ok()) {
    for (size_t c = 0; c < p; ++c) {
      double v = fit.sigma2 * inv->At(c, c);
      if (v >= 0.0) fit.std_errors[c] = std::sqrt(v);
    }
  }
  return fit;
}

}  // namespace carl
