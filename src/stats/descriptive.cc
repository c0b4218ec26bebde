#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace carl {

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double ZeroIfConstant(double variance, double mean, const double* v, size_t n) {
  // n copies of c sum with an error below n^2 u |c| / 2 (u = eps / 2), so
  // their mean is off by less than n u |c| and their two-pass variance
  // is below 2 (n u c)^2, a factor 8 under this bound.
  const double rounding =
      static_cast<double>(n) * std::numeric_limits<double>::epsilon() * mean;
  if (variance == 0.0 || variance > 4.0 * rounding * rounding) {
    return variance;
  }
  for (size_t i = 1; i < n; ++i) {
    if (v[i] != v[0]) return variance;
  }
  return 0.0;
}

double SampleVariance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  double m = Mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  const double variance = s / static_cast<double>(v.size() - 1);
  return ZeroIfConstant(variance, m, v.data(), v.size());
}

double StdDev(const std::vector<double>& v) {
  return std::sqrt(SampleVariance(v));
}

Result<double> PearsonCorrelation(const std::vector<double>& x,
                                  const std::vector<double>& y) {
  if (x.size() != y.size()) {
    return Status::InvalidArgument("correlation inputs differ in length");
  }
  if (x.size() < 2) {
    return Status::InvalidArgument("correlation needs at least 2 points");
  }
  double mx = Mean(x);
  double my = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    double dx = x[i] - mx;
    double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) {
    return Status::InvalidArgument("correlation undefined for constant input");
  }
  return sxy / std::sqrt(sxx * syy);
}

double Quantile(std::vector<double> v, double q) {
  CARL_CHECK(!v.empty()) << "quantile of empty vector";
  q = std::clamp(q, 0.0, 1.0);
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = static_cast<size_t>(std::ceil(pos));
  double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

Result<GroupMeans> MeansByGroup(const std::vector<double>& y,
                                const std::vector<double>& t) {
  if (y.size() != t.size()) {
    return Status::InvalidArgument("y and t differ in length");
  }
  GroupMeans out;
  double sum_t = 0.0, sum_c = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    if (t[i] != 0.0) {
      sum_t += y[i];
      ++out.n_treated;
    } else {
      sum_c += y[i];
      ++out.n_control;
    }
  }
  if (out.n_treated == 0 || out.n_control == 0) {
    return Status::FailedPrecondition(
        "need at least one treated and one control unit");
  }
  out.treated_mean = sum_t / static_cast<double>(out.n_treated);
  out.control_mean = sum_c / static_cast<double>(out.n_control);
  out.difference = out.treated_mean - out.control_mean;
  return out;
}

}  // namespace carl
