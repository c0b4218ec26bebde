// Aggregate functions over grounded attribute vectors: the AGG of
// aggregated rules (paper eq. (11)) and the building blocks of embedding
// functions ψ (§5.2.2 — mean/median + cardinality, moments).

#ifndef CARL_RELATIONAL_AGGREGATES_H_
#define CARL_RELATIONAL_AGGREGATES_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"

namespace carl {

enum class AggregateKind {
  kAvg,
  kSum,
  kCount,
  kMin,
  kMax,
  kMedian,
  kVariance,   ///< population variance
  kStd,        ///< population standard deviation
  kSkewness,   ///< third standardized moment (0 for fewer than 2 values)
};

const char* AggregateKindToString(AggregateKind kind);

/// Parses "AVG", "SUM", "COUNT", "MIN", "MAX", "MEDIAN", "VAR", "STD",
/// "SKEW" (case-insensitive).
Result<AggregateKind> ParseAggregateKind(const std::string& name);

/// The AVG aggregate: the values summed in order from 0.0, divided by n;
/// 0.0 for no values. Inline, so a loop over many small groups (the mean
/// embedding's rows) makes no call per group.
inline double AggregateMean(const double* values, size_t n) {
  if (n == 0) return 0.0;
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += values[i];
  return s / static_cast<double>(n);
}

/// Applies the aggregate. For an empty input: kCount/kSum return 0 and all
/// others return 0.0 — callers that need to distinguish "no parents" carry
/// the cardinality separately (the paper's mean embedding does exactly
/// this: aggregate plus cardinality).
double ApplyAggregate(AggregateKind kind, const double* values, size_t n);
inline double ApplyAggregate(AggregateKind kind,
                             const std::vector<double>& values) {
  return ApplyAggregate(kind, values.data(), values.size());
}

/// k-th central moment standardized for k >= 3; k=1 mean, k=2 variance.
double Moment(const double* values, size_t n, int k);
inline double Moment(const std::vector<double>& values, int k) {
  return Moment(values.data(), values.size(), k);
}

}  // namespace carl

#endif  // CARL_RELATIONAL_AGGREGATES_H_
