#pragma once

#include <cstdint>

#include "regression/matrix.h"
#include "streams/regression_data.h"

namespace nmc::regression {

/// Prior and noise model of the Bayesian linear regression (Section 5.2,
/// following Bishop): w ~ N(m0, S0) with S0 = kPriorVariance * I and
/// m0 = 0; observation noise precision beta = streams::kNoisePrecision, the
/// beta the synthetic workload draws its noise with.
inline constexpr double kPriorVariance = 10.0;

struct BayesLinRegOptions {
  int dim = 4;
};

/// Exact streaming posterior: maintains the precision matrix
/// Lambda_t = S0^{-1} + beta A_t^T A_t and b_t = S0^{-1} m0 + beta A_t^T y_t
/// (eq. (3) of the paper); the posterior over w is N(Lambda^{-1} b,
/// Lambda^{-1}). O(d^2) per update. This is both the centralized reference
/// and the recovery formula the distributed tracker applies to its tracked
/// entries.
class ExactBayesLinReg {
 public:
  explicit ExactBayesLinReg(const BayesLinRegOptions& options);

  /// Incorporates one training example (x has size dim).
  void Update(const Vector& x, double y);

  /// Lambda_t (precision of the posterior).
  const Matrix& precision() const { return precision_; }

  /// b_t.
  const Vector& moment() const { return moment_; }

  /// Posterior mean Lambda^{-1} b. Returns false if the precision matrix
  /// is not positive definite (cannot happen for the exact recursion; the
  /// signature matches the tracked variant).
  bool PosteriorMean(Vector* mean) const;

  int64_t updates() const { return updates_; }

 private:
  BayesLinRegOptions options_;
  Matrix precision_;
  Vector moment_;
  int64_t updates_ = 0;
};

/// The posterior predictive distribution at a query point (Bishop §3.3.2):
/// y* | x* ~ N(m^T x*, 1/beta + x*^T Lambda^{-1} x*). Shared by the exact
/// model and the distributed tracker (both expose Lambda and b).
struct PredictiveDistribution {
  double mean = 0.0;
  double variance = 0.0;
};

/// Computes the predictive distribution from a precision matrix and moment
/// vector. Returns false if `precision` is not positive definite.
bool Predict(const Matrix& precision, const Vector& moment, const Vector& x,
             PredictiveDistribution* out);

}  // namespace nmc::regression

