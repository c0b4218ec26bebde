#include "relational/aggregates.h"

#include <algorithm>
#include <cmath>

#include "common/str_util.h"

namespace carl {

const char* AggregateKindToString(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kAvg: return "AVG";
    case AggregateKind::kSum: return "SUM";
    case AggregateKind::kCount: return "COUNT";
    case AggregateKind::kMin: return "MIN";
    case AggregateKind::kMax: return "MAX";
    case AggregateKind::kMedian: return "MEDIAN";
    case AggregateKind::kVariance: return "VAR";
    case AggregateKind::kStd: return "STD";
    case AggregateKind::kSkewness: return "SKEW";
  }
  return "?";
}

Result<AggregateKind> ParseAggregateKind(const std::string& name) {
  std::string upper = ToUpper(name);
  if (upper == "AVG" || upper == "MEAN") return AggregateKind::kAvg;
  if (upper == "SUM") return AggregateKind::kSum;
  if (upper == "COUNT") return AggregateKind::kCount;
  if (upper == "MIN") return AggregateKind::kMin;
  if (upper == "MAX") return AggregateKind::kMax;
  if (upper == "MEDIAN") return AggregateKind::kMedian;
  if (upper == "VAR" || upper == "VARIANCE") return AggregateKind::kVariance;
  if (upper == "STD" || upper == "STDDEV") return AggregateKind::kStd;
  if (upper == "SKEW" || upper == "SKEWNESS") return AggregateKind::kSkewness;
  return Status::InvalidArgument("unknown aggregate: " + name);
}

namespace {

double PopulationVariance(const double* v, size_t n) {
  if (n < 2) return 0.0;
  double m = AggregateMean(v, n);
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += (v[i] - m) * (v[i] - m);
  return s / static_cast<double>(n);
}

double Median(const double* values, size_t n) {
  if (n == 0) return 0.0;
  std::vector<double> sorted(values, values + n);
  std::sort(sorted.begin(), sorted.end());
  if (n % 2 == 1) return sorted[n / 2];
  return 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

}  // namespace

double ApplyAggregate(AggregateKind kind, const double* values, size_t n) {
  switch (kind) {
    case AggregateKind::kCount:
      return static_cast<double>(n);
    case AggregateKind::kSum: {
      double s = 0.0;
      for (size_t i = 0; i < n; ++i) s += values[i];
      return s;
    }
    case AggregateKind::kAvg:
      return AggregateMean(values, n);
    case AggregateKind::kMin:
      return n == 0 ? 0.0 : *std::min_element(values, values + n);
    case AggregateKind::kMax:
      return n == 0 ? 0.0 : *std::max_element(values, values + n);
    case AggregateKind::kMedian:
      return Median(values, n);
    case AggregateKind::kVariance:
      return PopulationVariance(values, n);
    case AggregateKind::kStd:
      return std::sqrt(PopulationVariance(values, n));
    case AggregateKind::kSkewness: {
      if (n < 2) return 0.0;
      double m = AggregateMean(values, n);
      double var = PopulationVariance(values, n);
      if (var <= 0.0) return 0.0;
      double s3 = 0.0;
      for (size_t i = 0; i < n; ++i) s3 += std::pow(values[i] - m, 3.0);
      s3 /= static_cast<double>(n);
      return s3 / std::pow(var, 1.5);
    }
  }
  return 0.0;
}

double Moment(const double* values, size_t n, int k) {
  if (k <= 1) return AggregateMean(values, n);
  if (k == 2) return PopulationVariance(values, n);
  if (n < 2) return 0.0;
  double m = AggregateMean(values, n);
  double var = PopulationVariance(values, n);
  if (var <= 0.0) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += std::pow(values[i] - m, k);
  acc /= static_cast<double>(n);
  return acc / std::pow(std::sqrt(var), k);
}

}  // namespace carl
