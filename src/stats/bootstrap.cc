#include "stats/bootstrap.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/rng.h"
#include "exec/parallel.h"
#include "obs/trace.h"
#include "stats/descriptive.h"

namespace carl {

Result<BootstrapResult> Bootstrap(
    size_t n, int replicates, uint64_t seed,
    const std::function<Result<double>(const std::vector<size_t>&)>&
        statistic) {
  if (n == 0) return Status::InvalidArgument("bootstrap over empty table");
  if (replicates < 1) {
    return Status::InvalidArgument("need at least one bootstrap replicate");
  }
  CARL_TRACE_SCOPE("bootstrap.run");
  // Replicate b draws from its own derived RNG stream, lands in slot b,
  // and slots collect in order — identical results for every thread
  // count, including 1.
  std::vector<std::optional<double>> slots(replicates);
  ParallelFor(ExecContext::Global(), static_cast<size_t>(replicates),
              [&](size_t begin, size_t end, size_t) {
                CARL_TRACE_SCOPE("bootstrap.replicates");
                std::vector<size_t> indices(n);
                for (size_t b = begin; b < end; ++b) {
                  Rng rng(ExecContext::StreamSeed(seed, b));
                  for (size_t i = 0; i < n; ++i) {
                    indices[i] = static_cast<size_t>(
                        rng.UniformInt(0, static_cast<int64_t>(n) - 1));
                  }
                  Result<double> value = statistic(indices);
                  if (value.ok() && std::isfinite(*value)) slots[b] = *value;
                }
              });
  BootstrapResult result;
  for (const std::optional<double>& s : slots) {
    if (s.has_value()) {
      result.samples.push_back(*s);
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
  return result;
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
