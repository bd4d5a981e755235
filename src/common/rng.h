#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace nmc::common {

/// Deterministic pseudo-random generator (xoshiro256++ seeded via
/// SplitMix64). Every randomized component in the library draws from an
/// explicitly seeded Rng so that simulations and benchmarks are exactly
/// reproducible. Not cryptographic; statistical quality is validated in
/// tests/common/rng_test.cc.
class Rng {
 public:
  /// Seeds the generator. Distinct seeds give statistically independent
  /// streams (seeding runs the state through SplitMix64).
  explicit Rng(uint64_t seed);

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  /// Next 64 uniformly random bits.
  uint64_t NextU64();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double UniformDouble();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// True with probability p (p clamped to [0, 1]).
  bool Bernoulli(double p);

  /// ±1-valued update: +1 with probability p, else -1.
  int Sign(double p) { return Bernoulli(p) ? 1 : -1; }

  /// Standard normal via the Marsaglia polar method.
  double Gaussian();

  /// Normal with the given mean and standard deviation (stddev >= 0).
  double Gaussian(double mean, double stddev);

  /// Geometric: number of failures before the first success of a
  /// Bernoulli(p) sequence. Requires p in (0, 1].
  int64_t Geometric(double p);

  /// Uniform random permutation in place (Fisher-Yates).
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    NMC_CHECK(values != nullptr);
    for (size_t i = values->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*values)[i - 1], (*values)[j]);
    }
  }

  /// Derives an independent child generator; useful for giving each site or
  /// each trial its own stream without correlations.
  Rng Fork();

 private:
  uint64_t state_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace nmc::common

