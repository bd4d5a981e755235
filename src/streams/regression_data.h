#pragma once

#include <cstdint>
#include <vector>

namespace nmc::streams {

/// One training example for the Bayesian linear regression application
/// (Section 5.2): row vector x in R^d and response y.
struct RegressionSample {
  std::vector<double> x;
  double y = 0.0;
};

/// Features are uniform in [-kFeatureScale, kFeatureScale] (bounded, as
/// the permutation model requires).
inline constexpr double kFeatureScale = 1.0;

/// Noise precision beta: y = w* . x + N(0, 1/beta). The Bayesian model
/// (regression::ExactBayesLinReg) assumes the same beta.
inline constexpr double kNoisePrecision = 25.0;

/// Parameters of the synthetic regression workload.
struct RegressionDataOptions {
  int dim = 4;
  uint64_t seed = 1;
};

/// The generated dataset plus the ground-truth weights behind it.
struct RegressionData {
  std::vector<RegressionSample> samples;
  std::vector<double> true_weights;
};

/// Draws w* from N(0, I_d) and n bounded samples, then randomly permutes
/// the samples (the model of Theorem 3.4, which Section 5.2 assumes).
RegressionData GenerateRegressionData(int64_t n,
                                      const RegressionDataOptions& options);

}  // namespace nmc::streams

