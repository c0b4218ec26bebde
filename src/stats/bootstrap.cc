#include "stats/bootstrap.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "exec/parallel.h"
#include "guard/guard.h"
#include "obs/trace.h"
#include "stats/descriptive.h"

namespace carl {

Result<std::vector<BootstrapResult>> Bootstrap(
    size_t n, int replicates, uint64_t seed, size_t num_values,
    const std::function<Status(const std::vector<size_t>&, double*)>&
        statistic) {
  if (n == 0) return Status::InvalidArgument("bootstrap over empty table");
  if (replicates < 1) {
    return Status::InvalidArgument("need at least one bootstrap replicate");
  }
  CARL_TRACE_SCOPE("bootstrap.run");
  // Replicate b draws from its own derived RNG stream and writes its
  // values to row b of `values`, and rows collect in order — identical
  // results for every thread count, including 1.
  const size_t count = static_cast<size_t>(replicates);
  std::vector<double> values(count * num_values);
  std::vector<uint8_t> ok(count, 0);
  ParallelFor(ExecContext::Global(), count,
              [&](size_t begin, size_t end, size_t) {
                CARL_TRACE_SCOPE("bootstrap.replicates");
                std::vector<size_t> indices(n);
                for (size_t b = begin; b < end; ++b) {
                  Rng rng(ExecContext::StreamSeed(seed, b));
                  for (size_t i = 0; i < n; ++i) {
                    indices[i] = static_cast<size_t>(
                        rng.UniformInt(0, static_cast<int64_t>(n) - 1));
                  }
                  ok[b] = statistic(indices, &values[b * num_values]).ok();
                }
              });
  // A stopped token makes ParallelFor skip replicates; surface it before
  // the unfilled rows are read as failed replicates.
  CARL_RETURN_IF_ERROR(guard::CheckPoint());
  std::vector<BootstrapResult> results(num_values);
  for (size_t k = 0; k < num_values; ++k) {
    BootstrapResult& result = results[k];
    for (size_t b = 0; b < count; ++b) {
      const double v = values[b * num_values + k];
      if (ok[b] != 0 && std::isfinite(v)) {
        result.samples.push_back(v);
      } else {
        ++result.failures;
      }
    }
    if (result.samples.empty()) {
      return Status::FailedPrecondition("all bootstrap replicates failed");
    }
    result.mean = Mean(result.samples);
    result.sd = StdDev(result.samples);
    result.ci_low = Quantile(result.samples, 0.025);
    result.ci_high = Quantile(result.samples, 0.975);
  }
  return results;
}

Result<BootstrapResult> Bootstrap(
    size_t n, int replicates, uint64_t seed,
    const std::function<Result<double>(const std::vector<size_t>&)>&
        statistic) {
  CARL_ASSIGN_OR_RETURN(
      std::vector<BootstrapResult> results,
      Bootstrap(n, replicates, seed, 1,
                [&](const std::vector<size_t>& rows, double* value) -> Status {
                  CARL_ASSIGN_OR_RETURN(*value, statistic(rows));
                  return Status::OK();
                }));
  return std::move(results[0]);
}

Histogram MakeHistogram(const std::vector<double>& samples, int bins) {
  Histogram h;
  if (samples.empty() || bins < 1) return h;
  double lo = *std::min_element(samples.begin(), samples.end());
  double hi = *std::max_element(samples.begin(), samples.end());
  if (hi <= lo) hi = lo + 1e-9;
  double width = (hi - lo) / bins;
  h.centers.resize(bins);
  h.density.assign(bins, 0.0);
  for (int b = 0; b < bins; ++b) {
    h.centers[b] = lo + width * (b + 0.5);
  }
  for (double s : samples) {
    int b = std::min(bins - 1,
                     static_cast<int>(std::floor((s - lo) / width)));
    h.density[b] += 1.0;
  }
  for (double& d : h.density) d /= static_cast<double>(samples.size());
  return h;
}

}  // namespace carl
