// Nonparametric bootstrap over unit-table rows: standard errors for every
// effect estimate, and the effect distributions of Fig 9.

#ifndef CARL_STATS_BOOTSTRAP_H_
#define CARL_STATS_BOOTSTRAP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"

namespace carl {

struct BootstrapResult {
  double mean = 0.0;
  double sd = 0.0;
  double ci_low = 0.0;   ///< 2.5th percentile
  double ci_high = 0.0;  ///< 97.5th percentile
  std::vector<double> samples;
  /// Replicates whose statistic computation failed (e.g. a resample with
  /// no control units); excluded from the summary.
  size_t failures = 0;
};

/// Draws `replicates` resamples of row indices [0, n) with replacement and
/// evaluates `statistic` on each; the statistic writes `num_values`
/// values to its second argument. Returns one result per value. A value
/// counts for a replicate when the statistic returned OK and that value
/// is finite, so each value's samples and failures are those of a
/// one-value run on that value alone, over the same resamples. Requires
/// at least one counted replicate for every value.
///
/// Runs on ExecContext::Global(). Each replicate draws from its own RNG
/// stream (ExecContext::StreamSeed(seed, replicate)), so results are
/// deterministic and identical for every thread count, including 1.
/// `statistic` must be safe to call concurrently when threads > 1.
Result<std::vector<BootstrapResult>> Bootstrap(
    size_t n, int replicates, uint64_t seed, size_t num_values,
    const std::function<Status(const std::vector<size_t>&, double*)>&
        statistic);

/// The one-value form: the multi-value Bootstrap with num_values = 1.
Result<BootstrapResult> Bootstrap(
    size_t n, int replicates, uint64_t seed,
    const std::function<Result<double>(const std::vector<size_t>&)>&
        statistic);

/// Histogram of samples over `bins` equal-width bins; returns bin centers
/// and relative frequencies (sums to 1). Used to print Fig 9 series.
struct Histogram {
  std::vector<double> centers;
  std::vector<double> density;
};
Histogram MakeHistogram(const std::vector<double>& samples, int bins);

}  // namespace carl

#endif  // CARL_STATS_BOOTSTRAP_H_
