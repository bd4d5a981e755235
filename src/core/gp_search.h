#pragma once

#include <cstdint>

namespace nmc::core {

/// GPSearch (Section 2.1): a conservative online estimator of the drift
/// mu = E[X]. It observes (t, S_t) pairs whenever the coordinator learns
/// the count, and reports mu_hat = S_t / t only once it is confident —
/// via a Hoeffding width w_t = sqrt(2 t ln(2 n^3)) — that
/// mu_hat is within (1 ± kEpsilon0) mu. For |mu| > 0 this happens before
/// t = Theta(log n / (mu * kEpsilon0)^2); for mu = 0 it never reports,
/// which is exactly what Phase 1 of the counter needs. Communication-free:
/// it reuses counts the protocol already synchronizes. Observations are
/// evaluated only at geometrically spaced times t >= 2^j, which is what
/// the union bound in the analysis is taken over.
class GpSearch {
 public:
  /// Target relative accuracy of the reported estimate mu_hat.
  static constexpr double kEpsilon0 = 0.25;

  /// `horizon_n` is the stream horizon n (it enters the Hoeffding
  /// confidence width's log term).
  explicit GpSearch(int64_t horizon_n);

  /// Feeds the exact count at time t. Times must be non-decreasing. No-op
  /// once resolved.
  void Observe(int64_t t, double count);

  /// Whether a confident estimate has been reported.
  bool resolved() const { return resolved_; }

  /// The reported drift estimate; only valid once resolved().
  double mu_hat() const;

  /// The time at which the estimate was reported; only valid once
  /// resolved().
  int64_t resolution_time() const;

 private:
  double log_term_;
  int64_t next_checkpoint_ = 1;
  bool resolved_ = false;
  double mu_hat_ = 0.0;
  int64_t resolution_time_ = 0;
};

}  // namespace nmc::core

