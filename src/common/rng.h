// Rng: seeded pseudo-random generation for data generators, bootstrap
// resampling, and synthetic experiments. A thin wrapper over std::mt19937_64
// so every experiment in the repo is reproducible from a single seed.

#ifndef CARL_COMMON_RNG_H_
#define CARL_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace carl {

class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0);
  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);
  /// Standard normal scaled: mean + sd * N(0,1).
  double Normal(double mean = 0.0, double sd = 1.0);
  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool Bernoulli(double p);
  /// Poisson draw with the given mean.
  int64_t Poisson(double mean);
  /// Index in [0, weights.size()) drawn with probability proportional to
  /// weights (non-negative; dies if all are zero).
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace carl

#endif  // CARL_COMMON_RNG_H_
