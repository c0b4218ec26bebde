// Tests for src/stats: descriptive statistics, OLS, logistic/IRLS,
// matching, IPW, stratification, bootstrap — on analytic fixtures and on
// generated confounded data where the true effect is known.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fixtures.h"
#include "guard/guard.h"
#include "linalg/matrix.h"
#include "linalg/solve.h"
#include "relational/flat_table.h"
#include "stats/bootstrap.h"
#include "stats/descriptive.h"
#include "stats/ipw.h"
#include "stats/logistic.h"
#include "stats/matching.h"
#include "stats/ols.h"
#include "stats/stratification.h"

namespace carl {
namespace {

TEST(DescriptiveTest, MeanVarianceQuantile) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Mean(v), 3.0);
  EXPECT_DOUBLE_EQ(SampleVariance(v), 2.5);
  EXPECT_DOUBLE_EQ(StdDev(v), std::sqrt(2.5));
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile({4, 1}, 0.5), 2.5);
}

TEST(DescriptiveTest, PearsonCorrelation) {
  Result<double> perfect = PearsonCorrelation({1, 2, 3}, {2, 4, 6});
  ASSERT_TRUE(perfect.ok());
  EXPECT_NEAR(*perfect, 1.0, 1e-12);
  Result<double> inverse = PearsonCorrelation({1, 2, 3}, {3, 2, 1});
  EXPECT_NEAR(*inverse, -1.0, 1e-12);
  EXPECT_FALSE(PearsonCorrelation({1, 1, 1}, {1, 2, 3}).ok());
  EXPECT_FALSE(PearsonCorrelation({1, 2}, {1, 2, 3}).ok());
}

TEST(DescriptiveTest, MeansByGroup) {
  Result<GroupMeans> means =
      MeansByGroup({10, 20, 1, 2}, {1, 1, 0, 0});
  ASSERT_TRUE(means.ok());
  EXPECT_DOUBLE_EQ(means->treated_mean, 15.0);
  EXPECT_DOUBLE_EQ(means->control_mean, 1.5);
  EXPECT_DOUBLE_EQ(means->difference, 13.5);
  EXPECT_FALSE(MeansByGroup({1, 2}, {1, 1}).ok());
}

TEST(OlsTest, RecoversCoefficients) {
  // y = 1 + 2a - 3b with tiny noise.
  Rng rng(5);
  FlatTable t({"y", "a", "b"});
  for (int i = 0; i < 200; ++i) {
    double a = rng.Normal(), b = rng.Normal();
    t.AddRow({1 + 2 * a - 3 * b + rng.Normal(0, 0.01), a, b});
  }
  Result<OlsFit> fit = FitOls(t, "y", {"a", "b"});
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->CoefficientOr("(intercept)", 0), 1.0, 0.01);
  EXPECT_NEAR(fit->CoefficientOr("a", 0), 2.0, 0.01);
  EXPECT_NEAR(fit->CoefficientOr("b", 0), -3.0, 0.01);
}

// An exactly constant column goes at any magnitude: over 5,000 rows the
// two-pass variance of 98,765,432.1 and of 1,000,000,000.1 rounds to
// 7.1e-11 and 1.8e-10, above kOlsMinVariance.
TEST(OlsTest, DropsConstantColumns) {
  FlatTable t({"y", "x", "const", "big", "huge"});
  for (int i = 0; i < 5000; ++i) {
    const double x = static_cast<double>(i);
    t.AddRow({x, x, 7.0, 98765432.1, 1000000000.1});
  }
  Result<OlsFit> fit = FitOls(t, "y", {"x", "const", "big", "huge"});
  ASSERT_TRUE(fit.ok());
  EXPECT_EQ(fit->dropped, (std::vector<std::string>{"const", "big", "huge"}));
  EXPECT_FALSE(fit->Coefficient("const").ok());
  EXPECT_NEAR(fit->CoefficientOr("x", 0), 1.0, 1e-9);
}

TEST(OlsTest, ErrorsOnDegenerateInput) {
  FlatTable t({"y", "x"});
  t.AddRow({1, 1});
  EXPECT_FALSE(FitOls(t, "y", {"x"}).ok());  // one row
  FlatTable all_const({"y", "x"});
  all_const.AddRow({1, 2});
  all_const.AddRow({2, 2});
  Result<OlsFit> fit = FitOls(all_const, "y", {"x"});
  ASSERT_TRUE(fit.ok());  // intercept-only fit
  EXPECT_EQ(fit->names.size(), 1u);
  EXPECT_FALSE(FitOls(all_const, "y", {"x"}, /*add_intercept=*/false).ok());
  EXPECT_FALSE(FitOls(t, "nope", {"x"}).ok());
}

// The design-matrix OLS that FitOls replaced: materialize X (intercept,
// then the kept columns) and solve through SolveLeastSquares.
Result<OlsFit> DesignMatrixOls(const FlatTable& table, const std::string& y_col,
                               const std::vector<std::string>& x_cols,
                               bool add_intercept) {
  const std::vector<double>& y = table.Column(y_col);
  const size_t n = y.size();
  OlsFit fit;
  std::vector<const std::vector<double>*> cols;
  if (add_intercept) fit.names.push_back("(intercept)");
  for (const std::string& name : x_cols) {
    const std::vector<double>& col = table.Column(name);
    if (SampleVariance(col) < 1e-12) {
      fit.dropped.push_back(name);
      continue;
    }
    fit.names.push_back(name);
    cols.push_back(&col);
  }
  const size_t p = fit.names.size();
  if (p == 0) return Status::InvalidArgument("no usable regressors");
  Matrix x(n, p);
  const size_t c0 = add_intercept ? 1 : 0;
  for (size_t r = 0; r < n; ++r) {
    if (add_intercept) x.At(r, 0) = 1.0;
    for (size_t c = 0; c < cols.size(); ++c) x.At(r, c0 + c) = (*cols[c])[r];
  }
  CARL_ASSIGN_OR_RETURN(fit.coefficients, SolveLeastSquares(x, y));
  return fit;
}

// Same bits, with every NaN equal to every NaN.
bool SameBits(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameBits(const std::vector<double>& want,
                    const std::vector<double>& got, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(SameBits(want[i], got[i]))
        << what << "[" << i << "]: " << want[i] << " vs " << got[i];
  }
}

// FitOls forms X'X and X'y from the columns; every entry must keep the
// design-matrix path's summation order, so the coefficients and the
// dropped set are bit-identical to it — with 0/1 and zero-heavy columns
// (the skipped rows), zeros in y, constant columns (dropped), a
// duplicated column (a singular X'X that escalates the ridge), and the
// intercept on and off.
TEST(OlsTest, BitIdenticalToDesignMatrixPath) {
  const std::vector<std::vector<std::string>> column_sets = {
      {"binary", "zero_heavy", "continuous", "constant"},
      {"binary", "continuous", "binary_copy", "zero_heavy"},
      {"zero_heavy", "continuous", "binary", "binary2", "continuous2",
       "zero_heavy2"},
      {"continuous"},
  };
  size_t fitted = 0;
  for (size_t n : {size_t{2}, size_t{3}, size_t{17}, size_t{1000},
                   size_t{5000}}) {
    for (uint64_t seed : {1, 2}) {
      Rng rng(seed * 1000 + n);
      FlatTable t({"y", "binary", "binary2", "binary_copy", "zero_heavy",
                   "zero_heavy2", "continuous", "continuous2", "constant"});
      for (size_t r = 0; r < n; ++r) {
        const double binary = rng.Bernoulli(0.3) ? 1.0 : 0.0;
        const double binary2 = rng.Bernoulli(0.6) ? 1.0 : 0.0;
        const double zero_heavy = rng.Bernoulli(0.85) ? 0.0 : rng.Normal(2, 3);
        const double zero_heavy2 = rng.Bernoulli(0.7) ? 0.0 : rng.Normal();
        const double continuous = rng.Normal(1, 2);
        const double continuous2 = rng.Uniform() * 7.0 - 3.0;
        const double y = rng.Bernoulli(0.25)
                             ? 0.0
                             : 0.5 + 1.5 * binary - 0.7 * zero_heavy +
                                   0.3 * continuous + rng.Normal(0, 0.5);
        t.AddRow({y, binary, binary2, binary, zero_heavy, zero_heavy2,
                  continuous, continuous2, 4.25});
      }
      for (const std::vector<std::string>& cols : column_sets) {
        for (bool intercept : {true, false}) {
          SCOPED_TRACE("n=" + std::to_string(n) + " seed=" +
                       std::to_string(seed) + " cols=" + cols.front() + "+" +
                       std::to_string(cols.size() - 1) +
                       (intercept ? " with" : " without") + " intercept");
          Result<OlsFit> want = DesignMatrixOls(t, "y", cols, intercept);
          Result<OlsFit> got = FitOls(t, "y", cols, intercept);
          ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString();
          if (!want.ok()) {
            EXPECT_EQ(got.status().code(), want.status().code());
            continue;
          }
          EXPECT_EQ(got->names, want->names);
          EXPECT_EQ(got->dropped, want->dropped);
          ExpectSameBits(want->coefficients, got->coefficients,
                         "coefficients");
          ++fitted;
        }
      }
    }
  }
  EXPECT_GE(fitted, 60u);
}

// FitOls checks its columns for constancy four at a time; each column's
// variance must equal SampleVariance's bit for bit, so the dropped set
// cannot change. Columns: seeded continuous and 0/1 ones, near-constants
// whose variance falls on both sides of the 1e-12 cut, constants, which
// read exactly 0 (one so large that its two-pass sum rounds above the
// cut), and that large constant with its last row one ulp higher, whose
// variance is as small as a constant's rounding but not 0; 9 of them, so
// the last pass runs short.
TEST(OlsTest, SampleVariancesMatchSampleVarianceBitForBit) {
  size_t below = 0;
  size_t above = 0;
  for (size_t n : {size_t{2}, size_t{3}, size_t{5000}}) {
    for (uint64_t seed : {3, 4}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" +
                   std::to_string(seed));
      Rng rng(seed * 7919 + n);
      std::vector<std::vector<double>> cols(9, std::vector<double>(n));
      for (size_t r = 0; r < n; ++r) {
        const double sign = (r % 2 == 0) ? 1.0 : -1.0;
        cols[0][r] = rng.Normal(1, 2);
        cols[1][r] = rng.Bernoulli(0.3) ? 1.0 : 0.0;
        cols[2][r] = 4.25;
        cols[3][r] = 3.7 + sign * 0.8e-6;  // variance ~6.4e-13
        cols[4][r] = 3.7 + sign * 1.2e-6;  // variance ~1.4e-12
        cols[5][r] = -2.0 + rng.Uniform() * 1e-6;
        cols[6][r] = rng.Normal(-5, 0.1);
        cols[7][r] = 98765432.1;
        cols[8][r] = r + 1 < n ? 98765432.1 : std::nextafter(98765432.1, 1e9);
      }
      std::vector<const double*> data;
      for (const std::vector<double>& col : cols) data.push_back(col.data());
      const std::vector<double> got = SampleVariances(data, n);
      ASSERT_EQ(got.size(), cols.size());
      for (size_t c = 0; c < cols.size(); ++c) {
        const double want = SampleVariance(cols[c]);
        EXPECT_TRUE(SameBits(want, got[c]))
            << "column " << c << ": " << want << " vs " << got[c];
        if (c >= 3 && c <= 4) ++(want < 1e-12 ? below : above);
      }
      EXPECT_EQ(got[2], 0.0);
      EXPECT_EQ(got[7], 0.0);
      EXPECT_GT(got[8], 0.0);
    }
  }
  // The near-constant columns straddle the cut.
  EXPECT_GT(below, 0u);
  EXPECT_GT(above, 0u);
}

// Seeded columns for the sum tests: 0/1, zero-heavy, continuous, one
// with an infinity among zeros, and y with zeros; null is the intercept.
struct SumColumns {
  std::vector<std::vector<double>> data;
  std::vector<double> y;
  std::vector<const double*> cols;  // the intercept, then each of data
};

SumColumns MakeSumColumns(size_t n, uint64_t seed) {
  Rng rng(seed);
  SumColumns c;
  c.data.assign(4, std::vector<double>(n));
  c.y.resize(n);
  for (size_t r = 0; r < n; ++r) {
    c.data[0][r] = rng.Bernoulli(0.4) ? 1.0 : 0.0;
    c.data[1][r] = rng.Bernoulli(0.8) ? 0.0 : rng.Normal(1, 2);
    c.data[2][r] = rng.Normal(-1, 3);
    c.data[3][r] = r == n / 2 ? std::numeric_limits<double>::infinity()
                              : (rng.Bernoulli(0.5) ? 0.0 : rng.Normal());
    c.y[r] = rng.Bernoulli(0.3) ? 0.0 : rng.Normal(4, 1);
  }
  c.cols.push_back(nullptr);
  for (const std::vector<double>& col : c.data) c.cols.push_back(col.data());
  return c;
}

void ExpectSameSums(const OlsSums& want, const OlsSums& got) {
  EXPECT_EQ(got.rows, want.rows);
  ASSERT_EQ(got.cols, want.cols);
  for (size_t i = 0; i < want.cols; ++i) {
    for (size_t j = i; j < want.cols; ++j) {
      EXPECT_TRUE(SameBits(want.XtX(i, j), got.XtX(i, j)))
          << "X'X(" << i << ", " << j << "): " << want.XtX(i, j) << " vs "
          << got.XtX(i, j);
    }
  }
  ExpectSameBits(want.xty, got.xty, "X'y");
}

// Sums carried on over row ranges have the bits of one sum from row 0,
// whatever the split, because every entry is a sum in row order.
TEST(OlsTest, CarriedOnSumsMatchOneSumFromRowZero) {
  for (size_t n : {size_t{1}, size_t{7}, size_t{2000}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const SumColumns c = MakeSumColumns(n, 31 + n);
    OlsSums whole;
    SumProducts(c.cols, c.y.data(), n, &whole);
    OlsSums pieces;
    for (size_t end : {n / 3, n / 3, n / 2 + 1, n - 1, n}) {
      SumProducts(c.cols, c.y.data(), std::max(end, pieces.rows), &pieces);
    }
    ExpectSameSums(whole, pieces);
  }
}

// A column inserted into the sums of the others, with only its own
// entries summed, gives the sums of the whole list.
TEST(OlsTest, InsertColumnMatchesSummingTheWholeList) {
  const size_t n = 1500;
  const SumColumns c = MakeSumColumns(n, 77);
  OlsSums whole;
  SumProducts(c.cols, c.y.data(), n, &whole);
  for (size_t at = 1; at < c.cols.size(); ++at) {
    SCOPED_TRACE("at=" + std::to_string(at));
    std::vector<const double*> others = c.cols;
    others.erase(others.begin() + static_cast<long>(at));
    OlsSums without;
    SumProducts(others, c.y.data(), n, &without);
    ExpectSameSums(whole, InsertColumn(without, c.cols, c.y.data(), at));
  }
}

// Solving an ascending subset of summed columns gives FitOls's
// coefficients on that subset alone, bit for bit: a sub-matrix entry is
// the entry the subset's own X'X would sum.
TEST(OlsTest, SubsetSolveMatchesFitOlsOnTheSubset) {
  const size_t n = 3000;
  Rng rng(5150);
  FlatTable t({"y", "a", "b", "c", "d"});
  for (size_t r = 0; r < n; ++r) {
    const double a = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    const double b = rng.Bernoulli(0.7) ? 0.0 : rng.Normal(2, 1);
    const double c = rng.Normal();
    const double d = rng.Uniform() * 4.0;
    const double y = rng.Bernoulli(0.2)
                         ? 0.0
                         : 1.0 + 2.0 * a - b + 0.5 * c + rng.Normal(0, 0.3);
    t.AddRow({y, a, b, c, d});
  }
  const std::vector<std::string> names = {"a", "b", "c", "d"};
  std::vector<const double*> cols = {nullptr};
  for (const std::string& name : names) cols.push_back(t.Column(name).data());
  OlsSums sums;
  SumProducts(cols, t.Column("y").data(), n, &sums);
  for (const std::vector<size_t>& subset :
       {std::vector<size_t>{0, 1, 3}, std::vector<size_t>{0, 2, 3, 4},
        std::vector<size_t>{0, 4}, std::vector<size_t>{0, 1, 2, 3, 4}}) {
    std::vector<std::string> x;
    for (size_t k = 1; k < subset.size(); ++k) {
      x.push_back(names[subset[k] - 1]);
    }
    Result<OlsFit> want = FitOls(t, "y", x);
    Result<std::vector<double>> got = SolveOls(sums, subset);
    ASSERT_TRUE(want.ok() && got.ok());
    ExpectSameBits(want->coefficients, *got, "coefficients");
  }
  EXPECT_FALSE(SolveOls(sums, {}).ok());
}

TEST(LogisticTest, RecoversCoefficients) {
  Rng rng(11);
  const size_t n = 4000;
  Matrix x(n, 2);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x.At(i, 0) = 1.0;
    x.At(i, 1) = rng.Normal();
    double p = Sigmoid(-0.5 + 1.5 * x.At(i, 1));
    y[i] = rng.Bernoulli(p) ? 1.0 : 0.0;
  }
  Result<LogisticFit> fit = FitLogisticRaw(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_TRUE(fit->converged);
  EXPECT_NEAR(fit->coefficients[0], -0.5, 0.15);
  EXPECT_NEAR(fit->coefficients[1], 1.5, 0.15);
  EXPECT_LT(fit->log_likelihood, 0.0);
}

TEST(LogisticTest, RejectsNonBinaryOutcome) {
  Matrix x(3, 1, 1.0);
  EXPECT_FALSE(FitLogisticRaw(x, {0, 1, 2}).ok());
  EXPECT_FALSE(FitLogisticRaw(x, {0, 1}).ok());  // size mismatch
}

TEST(LogisticTest, SigmoidSymmetry) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(30) + Sigmoid(-30), 1.0, 1e-12);
  EXPECT_GT(Sigmoid(1), Sigmoid(-1));
}

TEST(LogisticTest, PropensityScoresClipped) {
  FlatTable t({"t", "x"});
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    double x = rng.Normal();
    t.AddRow({rng.Bernoulli(Sigmoid(4 * x)) ? 1.0 : 0.0, x});
  }
  Result<std::vector<double>> ps = PropensityScores(t, "t", {"x"}, 0.05);
  ASSERT_TRUE(ps.ok());
  for (double p : *ps) {
    EXPECT_GE(p, 0.05);
    EXPECT_LE(p, 0.95);
  }
}

// A confounded synthetic fixture shared by the adjustment estimators:
// t depends on a confounder z, y = tau*t + 2*z + noise. Naive contrast is
// badly biased; propensity adjustment on z must recover tau.
struct ConfoundedData {
  std::vector<double> y, t, ps_true;
  FlatTable table;
  double tau;
};

ConfoundedData MakeConfounded(double tau, size_t n, uint64_t seed) {
  Rng rng(seed);
  ConfoundedData d;
  d.tau = tau;
  d.table = FlatTable({"y", "t", "z"});
  for (size_t i = 0; i < n; ++i) {
    double z = rng.Normal();
    double p = Sigmoid(1.5 * z);
    double t = rng.Bernoulli(p) ? 1.0 : 0.0;
    double y = tau * t + 2.0 * z + rng.Normal(0, 0.3);
    d.y.push_back(y);
    d.t.push_back(t);
    d.ps_true.push_back(p);
    d.table.AddRow({y, t, z});
  }
  return d;
}

TEST(MatchingTest, RecoversEffectUnderConfounding) {
  ConfoundedData d = MakeConfounded(1.0, 6000, 21);
  Result<GroupMeans> naive = MeansByGroup(d.y, d.t);
  ASSERT_TRUE(naive.ok());
  EXPECT_GT(naive->difference, 2.0);  // heavily biased upward

  Result<std::vector<double>> ps =
      PropensityScores(d.table, "t", {"z"});
  ASSERT_TRUE(ps.ok());
  Result<MatchingResult> m = PropensityScoreMatchingAte(d.y, d.t, *ps);
  ASSERT_TRUE(m.ok());
  EXPECT_NEAR(m->ate, d.tau, 0.25);
  EXPECT_GT(m->n_treated, 0u);
  EXPECT_GT(m->n_control, 0u);
}

TEST(MatchingTest, CaliperDiscardsFarMatches) {
  // Controls live far away in propensity space for part of the range.
  std::vector<double> y{1, 2, 10, 11};
  std::vector<double> t{1, 1, 0, 0};
  std::vector<double> ps{0.9, 0.85, 0.1, 0.12};
  Result<MatchingResult> strict =
      PropensityScoreMatchingAte(y, t, ps, /*caliper=*/0.05);
  EXPECT_FALSE(strict.ok());  // nothing matches within the caliper
  Result<MatchingResult> loose = PropensityScoreMatchingAte(y, t, ps);
  ASSERT_TRUE(loose.ok());
  EXPECT_EQ(loose->unmatched, 0u);
}

TEST(MatchingTest, InputValidation) {
  EXPECT_FALSE(PropensityScoreMatchingAte({1}, {1}, {0.5}).ok());
  EXPECT_FALSE(PropensityScoreMatchingAte({1, 2}, {1, 1}, {0.5, 0.5}).ok());
  EXPECT_FALSE(PropensityScoreMatchingAte({1, 2}, {1}, {0.5}).ok());
}

TEST(IpwTest, RecoversEffectUnderConfounding) {
  ConfoundedData d = MakeConfounded(-0.5, 6000, 22);
  Result<std::vector<double>> ps =
      PropensityScores(d.table, "t", {"z"});
  ASSERT_TRUE(ps.ok());
  Result<double> ate = IpwAte(d.y, d.t, *ps);
  ASSERT_TRUE(ate.ok());
  EXPECT_NEAR(*ate, d.tau, 0.3);
}

TEST(IpwTest, RejectsDegeneratePropensity) {
  EXPECT_FALSE(IpwAte({1, 2}, {1, 0}, {1.0, 0.5}).ok());
  EXPECT_FALSE(IpwAte({1, 2}, {1, 1}, {0.5, 0.5}).ok());
}

TEST(StratificationTest, RecoversEffectUnderConfounding) {
  ConfoundedData d = MakeConfounded(2.0, 8000, 23);
  Result<std::vector<double>> ps =
      PropensityScores(d.table, "t", {"z"});
  ASSERT_TRUE(ps.ok());
  Result<StratifiedAteResult> ate = StratifiedAte(d.y, d.t, *ps, 10);
  ASSERT_TRUE(ate.ok());
  EXPECT_NEAR(ate->ate, d.tau, 0.35);
  EXPECT_GT(ate->used_strata, 5);
}

TEST(StratificationTest, SkipsOneGroupStrata) {
  // All treated units clustered at high propensity.
  std::vector<double> y{1, 1, 0, 0};
  std::vector<double> t{1, 1, 0, 0};
  std::vector<double> ps{0.9, 0.91, 0.1, 0.11};
  Result<StratifiedAteResult> r = StratifiedAte(y, t, ps, 2);
  EXPECT_FALSE(r.ok());  // no stratum with both groups
}

TEST(BootstrapTest, MeanOfMeanMatches) {
  std::vector<double> data{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  Result<BootstrapResult> b = Bootstrap(
      data.size(), 500, 9,
      [&](const std::vector<size_t>& idx) -> Result<double> {
        double s = 0;
        for (size_t i : idx) s += data[i];
        return s / static_cast<double>(idx.size());
      });
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(b->mean, 5.5, 0.15);
  EXPECT_GT(b->sd, 0.0);
  EXPECT_LT(b->ci_low, b->ci_high);
  EXPECT_EQ(b->samples.size(), 500u);
}

TEST(BootstrapTest, FailuresCountedNotFatal) {
  int calls = 0;
  Result<BootstrapResult> b = Bootstrap(
      4, 10, 1, [&](const std::vector<size_t>&) -> Result<double> {
        return (++calls % 2 == 0)
                   ? Result<double>(1.0)
                   : Result<double>(Status::FailedPrecondition("flaky"));
      });
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->failures, 5u);
  EXPECT_EQ(b->samples.size(), 5u);
}

TEST(BootstrapTest, AllFailuresIsError) {
  Result<BootstrapResult> b =
      Bootstrap(4, 5, 1, [](const std::vector<size_t>&) -> Result<double> {
        return Status::FailedPrecondition("always");
      });
  EXPECT_FALSE(b.ok());
}

// The multi-value Bootstrap keeps per value exactly what a one-value run
// on that value alone keeps: the same resamples, and a replicate counts
// for a value when the statistic succeeded and that value is finite. The
// synthetic statistic fails some replicates outright and makes single
// components non-finite in others; everything must match bit for bit.
TEST(BootstrapTest, MultiValueMatchesOneRunPerValue) {
  std::vector<double> data(40);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = std::sin(static_cast<double>(i)) * 3.0 + 0.1 * i;
  }
  constexpr size_t kValues = 4;
  auto components = [&](const std::vector<size_t>& idx,
                        double* out) -> Status {
    double sum = 0.0;
    for (size_t i : idx) sum += data[i];
    const double mean = sum / static_cast<double>(idx.size());
    if (idx[0] % 9 == 0) return Status::FailedPrecondition("no controls");
    out[0] = mean;
    out[1] = idx[1] % 3 == 0 ? std::numeric_limits<double>::infinity()
                             : mean * 2.0;
    out[2] = idx[2] % 4 == 0 ? std::numeric_limits<double>::quiet_NaN()
                             : data[idx[3]];
    out[3] = mean - data[idx[4]];
    return Status::OK();
  };
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    test_fixtures::ScopedThreads scoped_threads(threads);
    Result<std::vector<BootstrapResult>> merged =
        Bootstrap(data.size(), 60, 17, kValues, components);
    ASSERT_TRUE(merged.ok()) << merged.status();
    ASSERT_EQ(merged->size(), kValues);
    for (size_t k = 0; k < kValues; ++k) {
      SCOPED_TRACE("value " + std::to_string(k));
      Result<BootstrapResult> single = Bootstrap(
          data.size(), 60, 17,
          [&](const std::vector<size_t>& idx) -> Result<double> {
            double out[kValues];
            CARL_RETURN_IF_ERROR(components(idx, out));
            return out[k];
          });
      ASSERT_TRUE(single.ok()) << single.status();
      const BootstrapResult& got = (*merged)[k];
      ExpectSameBits(single->samples, got.samples, "samples");
      EXPECT_EQ(got.failures, single->failures);
      EXPECT_TRUE(SameBits(got.mean, single->mean));
      EXPECT_TRUE(SameBits(got.sd, single->sd));
      EXPECT_TRUE(SameBits(got.ci_low, single->ci_low));
      EXPECT_TRUE(SameBits(got.ci_high, single->ci_high));
    }
    // The statistic really failed replicates, and values 1 and 2 lost
    // more of them than value 0.
    EXPECT_GT((*merged)[0].failures, 0u);
    EXPECT_GT((*merged)[1].failures, (*merged)[0].failures);
    EXPECT_GT((*merged)[2].failures, (*merged)[0].failures);
  }
}

TEST(BootstrapTest, StoppedTokenSurfacesItsStatus) {
  guard::ExecToken token;
  token.Cancel();
  guard::ScopedToken scoped(&token);
  Result<BootstrapResult> b =
      Bootstrap(4, 5, 1, [](const std::vector<size_t>&) -> Result<double> {
        return 1.0;
      });
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kCancelled) << b.status();
}

TEST(BootstrapTest, HistogramSumsToOne) {
  Histogram h = MakeHistogram({1, 1, 2, 2, 3, 3, 10}, 5);
  ASSERT_EQ(h.centers.size(), 5u);
  double total = 0;
  for (double d : h.density) total += d;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_TRUE(MakeHistogram({}, 3).centers.empty());
}

}  // namespace
}  // namespace carl
