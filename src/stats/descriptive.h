// Descriptive statistics used across estimators and experiment reports:
// means by treatment group (the paper's "naive difference of averages",
// Table 3), Pearson correlation (Fig 7), quantiles for stratification.

#ifndef CARL_STATS_DESCRIPTIVE_H_
#define CARL_STATS_DESCRIPTIVE_H_

#include <cstddef>
#include <vector>

#include "common/result.h"

namespace carl {

double Mean(const std::vector<double>& v);
/// `variance`, the two-pass sample variance of the `n` >= 2 values `v`
/// of mean `mean`, or exactly 0 when every value equals the first: a
/// constant's two-pass variance is rounding error, which exceeds a fit's
/// near-constant cutoff when the constant is large. Scans `v` only when
/// `variance` is nonzero and small enough to be such rounding error, and
/// stops at the first value that differs.
double ZeroIfConstant(double variance, double mean, const double* v, size_t n);
/// Unbiased sample variance (n-1 denominator); exactly 0 for n < 2 and
/// for a constant (ZeroIfConstant).
double SampleVariance(const std::vector<double>& v);
double StdDev(const std::vector<double>& v);

/// Pearson correlation coefficient; fails when either side is constant.
Result<double> PearsonCorrelation(const std::vector<double>& x,
                                  const std::vector<double>& y);

/// Linear-interpolated quantile, q in [0,1]. Input need not be sorted.
double Quantile(std::vector<double> v, double q);

/// Group means of y by binary t (t != 0 counts as treated).
struct GroupMeans {
  double treated_mean = 0.0;
  double control_mean = 0.0;
  size_t n_treated = 0;
  size_t n_control = 0;
  /// treated_mean - control_mean (the naive estimate).
  double difference = 0.0;
};
Result<GroupMeans> MeansByGroup(const std::vector<double>& y,
                                const std::vector<double>& t);

}  // namespace carl

#endif  // CARL_STATS_DESCRIPTIVE_H_
