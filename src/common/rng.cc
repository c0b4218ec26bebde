#include "common/rng.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace carl {

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::Normal(double mean, double sd) {
  std::normal_distribution<double> dist(mean, sd);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  p = std::clamp(p, 0.0, 1.0);
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

int64_t Rng::Poisson(double mean) {
  std::poisson_distribution<int64_t> dist(mean);
  return dist(engine_);
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  CARL_CHECK(total > 0.0) << "Categorical requires a positive weight sum";
  double r = Uniform(0.0, total);
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;
}

}  // namespace carl
