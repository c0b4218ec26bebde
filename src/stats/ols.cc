#include "stats/ols.h"

#include <cstdint>

#include "common/logging.h"
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

// One entry of X'X or X'y: the running sum *out carried on over rows, in
// row order, of skip[r] * other[r], leaving out the rows where skip[r] is
// 0 — X'X entry (i, j), i <= j, skips on column i, as Matrix::Gram does;
// X'y entry c skips on y, as Matrix::TransposeVec does.
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

// Carries every entry on over rows [0, n) of its pointers, four entries
// per pass in independent accumulators; a short last pass repeats its
// first entry and does not store it.
void SumEntries(const std::vector<ProductSum>& sums, size_t n) {
  constexpr size_t kLanes = 4;
  for (size_t k = 0; k < sums.size(); k += kLanes) {
    const double* skip[kLanes];
    const double* other[kLanes];
    double start[kLanes];
    for (size_t l = 0; l < kLanes; ++l) {
      const ProductSum& e = sums[k + l < sums.size() ? k + l : k];
      skip[l] = e.skip;
      other[l] = e.other;
      start[l] = *e.out;
    }
    Pair lo = {start[0], start[1]};
    Pair hi = {start[2], start[3]};
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

// The columns from row `first` on, the null (ones) column pointing into
// `ones`, which is filled with `count` ones on first need.
std::vector<const double*> RowsFrom(const std::vector<const double*>& cols,
                                    size_t first, size_t count,
                                    std::vector<double>* ones) {
  std::vector<const double*> from(cols.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    if (cols[c] != nullptr) {
      from[c] = cols[c] + first;
      continue;
    }
    if (ones->empty()) ones->assign(count, 1.0);
    from[c] = ones->data();
  }
  return from;
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
      const double mean = l < 2 ? mean_lo[l] : mean_hi[l - 2];
      const double variance = sum[l] / static_cast<double>(n - 1);
      variances[k + l] = ZeroIfConstant(variance, mean, col[l], n);
    }
  }
  return variances;
}

void SumProducts(const std::vector<const double*>& cols, const double* y,
                 size_t n, OlsSums* sums) {
  const size_t p = cols.size();
  if (sums->rows == 0) {
    sums->cols = p;
    sums->xtx.assign(p * p, 0.0);
    sums->xty.assign(p, 0.0);
  }
  CARL_CHECK(sums->cols == p && n >= sums->rows)
      << "sums carried on over another column list or fewer rows";
  const size_t first = sums->rows;
  const size_t count = n - first;
  if (count == 0) return;
  std::vector<double> ones;
  const std::vector<const double*> x = RowsFrom(cols, first, count, &ones);
  std::vector<ProductSum> entries;
  entries.reserve(p * (p + 1) / 2 + p);
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = i; j < p; ++j) {
      entries.push_back(ProductSum{x[i], x[j], &sums->xtx[i * p + j]});
    }
  }
  for (size_t c = 0; c < p; ++c) {
    entries.push_back(ProductSum{y + first, x[c], &sums->xty[c]});
  }
  SumEntries(entries, count);
  sums->rows = n;
}

OlsSums InsertColumn(const OlsSums& sums,
                     const std::vector<const double*>& cols, const double* y,
                     size_t at) {
  const size_t p = cols.size();
  CARL_CHECK(p == sums.cols + 1 && at < p)
      << "InsertColumn needs the summed list plus one column";
  OlsSums out;
  out.rows = sums.rows;
  out.cols = p;
  out.xtx.assign(p * p, 0.0);
  out.xty.assign(p, 0.0);
  auto old_index = [at](size_t i) { return i < at ? i : i - 1; };
  for (size_t i = 0; i < p; ++i) {
    if (i == at) continue;
    for (size_t j = i; j < p; ++j) {
      if (j == at) continue;
      out.xtx[i * p + j] = sums.XtX(old_index(i), old_index(j));
    }
    out.xty[i] = sums.xty[old_index(i)];
  }
  std::vector<double> ones;
  const std::vector<const double*> x = RowsFrom(cols, 0, sums.rows, &ones);
  std::vector<ProductSum> entries;
  entries.reserve(p + 1);
  for (size_t i = 0; i < at; ++i) {
    entries.push_back(ProductSum{x[i], x[at], &out.xtx[i * p + at]});
  }
  for (size_t j = at; j < p; ++j) {
    entries.push_back(ProductSum{x[at], x[j], &out.xtx[at * p + j]});
  }
  entries.push_back(ProductSum{y, x[at], &out.xty[at]});
  SumEntries(entries, sums.rows);
  return out;
}

Result<std::vector<double>> SolveOls(const OlsSums& sums,
                                     const std::vector<size_t>& keep) {
  const size_t k = keep.size();
  if (k == 0) {
    return Status::InvalidArgument("no usable regressors (all constant)");
  }
  Matrix gram(k, k);
  std::vector<double> xty(k);
  for (size_t a = 0; a < k; ++a) {
    for (size_t b = a; b < k; ++b) {
      const double entry = sums.XtX(keep[a], keep[b]);
      gram.At(a, b) = entry;
      gram.At(b, a) = entry;
    }
    xty[a] = sums.xty[keep[a]];
  }
  return SolveNormalEquations(gram, xty);
}

Result<OlsFit> FitOls(const FlatTable& table, const std::string& y_col,
                      const std::vector<std::string>& x_cols,
                      bool add_intercept) {
  CARL_ASSIGN_OR_RETURN(size_t y_idx, table.ColumnIndex(y_col));
  const std::vector<double>& y = table.Column(y_idx);
  const size_t n = y.size();
  if (n < 2) return Status::InvalidArgument("OLS needs at least 2 rows");

  OlsFit fit;
  // The design matrix's columns, intercept first as the ones column.
  std::vector<const double*> cols;
  if (add_intercept) {
    fit.names.push_back("(intercept)");
    cols.push_back(nullptr);
  }
  std::vector<const double*> x;
  x.reserve(x_cols.size());
  for (const std::string& name : x_cols) {
    CARL_ASSIGN_OR_RETURN(size_t idx, table.ColumnIndex(name));
    x.push_back(table.Column(idx).data());
  }
  const std::vector<double> variances = SampleVariances(x, n);
  for (size_t c = 0; c < x_cols.size(); ++c) {
    if (variances[c] < kOlsMinVariance) {
      fit.dropped.push_back(x_cols[c]);
      continue;
    }
    fit.names.push_back(x_cols[c]);
    cols.push_back(x[c]);
  }
  OlsSums sums;
  SumProducts(cols, y.data(), n, &sums);
  std::vector<size_t> keep(cols.size());
  for (size_t c = 0; c < keep.size(); ++c) keep[c] = c;
  CARL_ASSIGN_OR_RETURN(fit.coefficients, SolveOls(sums, keep));
  return fit;
}

}  // namespace carl
