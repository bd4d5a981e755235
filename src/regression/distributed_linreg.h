#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/nonmonotonic_counter.h"
#include "regression/bayes_linreg.h"
#include "regression/matrix.h"
#include "sim/message.h"

namespace nmc::regression {

/// Parameters of the distributed posterior tracker.
struct DistributedLinRegOptions {
  BayesLinRegOptions model;
  int64_t horizon_n = 1;
  uint64_t seed = 1;
};

/// Section 5.2: continuous distributed tracking of the Bayesian linear
/// regression posterior. The precision matrix's data part beta*A^T A is
/// symmetric, so d(d+1)/2 Non-monotonic Counters track its upper triangle
/// and d more track beta*A^T y; every entry stream is a bounded sequence
/// that is randomly permuted along with the training data, so Theorem 3.4
/// applies per counter and the total cost is Õ(sqrt(k n) d^2 / eps).
/// The posterior is recovered as N(Lambda^{-1} b, Lambda^{-1}) from the
/// tracked entries plus the (known) prior; as the paper notes, the
/// recovered mean's accuracy additionally depends on the conditioning of
/// Lambda.
class DistributedLinRegTracker {
 public:
  /// A priori bound on every feature |x_j| (the synthetic workload draws
  /// features from [-1, 1]).
  static constexpr double kFeatureBound = 1.0;
  /// A priori bound on |y| (the permutation model assumes bounded data);
  /// with kFeatureBound it rescales the counter updates into [-1, 1].
  static constexpr double kResponseBound = 16.0;
  /// Per-entry relative tracking accuracy of the entry counters (which run
  /// eq. (1) at CounterOptions' alpha and beta).
  static constexpr double kCounterEpsilon = 0.05;

  DistributedLinRegTracker(int num_sites,
                           const DistributedLinRegOptions& options);

  int num_sites() const { return num_sites_; }

  /// Feeds one training example arriving at `site_id`.
  void ProcessUpdate(int site_id, const Vector& x, double y);

  /// Assembles the tracked precision matrix Lambda_hat (prior + tracked
  /// data part).
  Matrix TrackedPrecision() const;

  /// Assembles the tracked moment vector b_hat.
  Vector TrackedMoment() const;

  /// Posterior mean from the tracked quantities; false if Lambda_hat lost
  /// positive definiteness (possible only through tracking error).
  bool PosteriorMean(Vector* mean) const;

  /// Posterior predictive distribution at a query point, from the tracked
  /// posterior (coordinator-side; costs no communication).
  bool Predict(const Vector& x, PredictiveDistribution* out) const;

  /// Aggregate communication across all entry counters.
  sim::MessageStats stats() const;

  int64_t updates_processed() const { return updates_processed_; }

 private:
  core::NonMonotonicCounter* XxCounter(int i, int j);
  const core::NonMonotonicCounter* XxCounter(int i, int j) const;

  int num_sites_;
  DistributedLinRegOptions options_;
  double xx_scale_;  // counter update = beta x_i x_j / xx_scale_
  double xy_scale_;  // counter update = beta y x_i / xy_scale_
  /// Upper triangle, row-major: (i, j) for i <= j.
  std::vector<std::unique_ptr<core::NonMonotonicCounter>> xx_counters_;
  std::vector<std::unique_ptr<core::NonMonotonicCounter>> xy_counters_;
  int64_t updates_processed_ = 0;
};

}  // namespace nmc::regression

