#include "core/sampling.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace nmc::core {

namespace {

/// log(max(n, 2)), memoized: the horizon is a run constant but this sits
/// on the per-update sampling path, so recomputing the log each update is
/// pure waste. thread_local keeps the cache safe under the parallel trial
/// runner; the cached value is bit-identical to recomputation.
double LogHorizon(int64_t horizon_n) {
  NMC_CHECK_GE(horizon_n, 1);
  thread_local int64_t cached_n = -1;
  thread_local double cached_log = 0.0;
  if (horizon_n != cached_n) {
    cached_log =
        std::log(std::max<double>(static_cast<double>(horizon_n), 2.0));  // memoized: one log per horizon change (a run constant), served from the thread_local cache on every later update
    cached_n = horizon_n;
  }
  return cached_log;
}

/// pow(LogHorizon(n), exponent), memoized for the same reason.
double PowLogHorizon(int64_t horizon_n, double exponent) {
  thread_local int64_t cached_n = -1;
  thread_local double cached_exponent = 0.0;
  thread_local double cached_pow = 0.0;
  if (horizon_n != cached_n || exponent != cached_exponent) {
    // memoized: recomputed only when the horizon or exponent changes, both run constants
    cached_pow = std::pow(LogHorizon(horizon_n), exponent);
    cached_n = horizon_n;
    cached_exponent = exponent;
  }
  return cached_pow;
}

}  // namespace

double RandomWalkRate(double estimate, double epsilon, int64_t horizon_n,
                      double alpha, double beta) {
  NMC_CHECK_GT(epsilon, 0.0);
  NMC_CHECK_GT(alpha, 0.0);
  NMC_CHECK_GE(beta, 0.0);
  const double scaled = epsilon * std::fabs(estimate);
  if (scaled == 0.0) return 1.0;
  const double rate =
      alpha * PowLogHorizon(horizon_n, beta) / (scaled * scaled);
  return std::min(rate, 1.0);
}

double FbmRate(double estimate, double epsilon, int64_t horizon_n,
               double delta, double alpha_delta) {
  NMC_CHECK_GT(epsilon, 0.0);
  NMC_CHECK_GT(delta, 1.0);
  NMC_CHECK_LE(delta, 2.0);
  NMC_CHECK_GT(alpha_delta, 0.0);
  const double scaled = epsilon * std::fabs(estimate);
  if (scaled == 0.0) return 1.0;
  const double rate = alpha_delta *
                      PowLogHorizon(horizon_n, 1.0 + delta / 2.0) /
                      std::pow(scaled, delta);  // rate recomputation, not per-update work: every per-update call site caches the result in core::RateCache until the estimate moves
  return std::min(rate, 1.0);
}

double DriftGuardRate(int64_t t, double epsilon, int64_t horizon_n, double c) {
  NMC_CHECK_GT(epsilon, 0.0);
  NMC_CHECK_GT(c, 0.0);
  if (t <= 0) return 1.0;
  const double rate =
      c * LogHorizon(horizon_n) / (epsilon * static_cast<double>(t));
  return std::min(rate, 1.0);
}

}  // namespace nmc::core
