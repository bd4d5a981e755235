#pragma once

#include <cstdint>

namespace nmc::core {

/// The sampling-rate laws of the Non-monotonic Counter. All rates are
/// probabilities in (0, 1]; they are pure functions of broadcast state, so
/// every site evaluates the same rate from the same global estimate (this
/// is what lets the coordinator reason about the sites' behavior without
/// extra messages).

/// Eq. (1): random-walk law  min{ alpha * log^beta(n) / (eps*|s|)^2 , 1 }.
/// The paper proves correctness with alpha > 9/2 and beta = 2; those
/// constants come from Hoeffding + union bounds and are very conservative
/// in practice, so alpha and beta are configurable (see
/// CounterOptions::alpha/beta and the E12 ablation).
double RandomWalkRate(double estimate, double epsilon, int64_t horizon_n,
                      double alpha, double beta);

/// Eq. (2): fBm law  min{ alpha_delta * log^{1+delta/2}(n) / (eps*|s|)^delta, 1 }
/// for 1 < delta <= 2 with H <= 1/delta. delta = 2 recovers eq. (1).
double FbmRate(double estimate, double epsilon, int64_t horizon_n,
               double delta, double alpha_delta);

/// The conservative drift guard of Section 3.2:  min{ c * log(n) / (eps*t), 1 }.
/// Applied (as a max with the walk rate) while the drift is still unknown;
/// its total cost is only O(log^2(n)/eps) (the paper's "type 1 waste").
double DriftGuardRate(int64_t t, double epsilon, int64_t horizon_n, double c);

/// Single-entry memo for the walk/fBm laws at call sites where the
/// estimate is frozen between broadcasts but the law would otherwise be
/// re-evaluated per update: LogHorizon/PowLogHorizon memoize the run
/// constants, but FbmRate still pays a pow(eps*|s|, delta) per call even
/// when the estimate has not moved since the last broadcast. Keyed on
/// (estimate, effective epsilon); the cached value is bit-identical to
/// recomputation, so hits and misses are observationally equivalent.
class RateCache {
 public:
  template <typename ComputeFn>
  double Get(double estimate, double epsilon_eff, ComputeFn&& compute) {
    if (!valid_ || estimate != key_estimate_ || epsilon_eff != key_epsilon_) {
      rate_ = compute();
      key_estimate_ = estimate;
      key_epsilon_ = epsilon_eff;
      valid_ = true;
    }
    return rate_;
  }

 private:
  bool valid_ = false;
  double key_estimate_ = 0.0;
  double key_epsilon_ = 0.0;
  double rate_ = 0.0;
};

}  // namespace nmc::core

