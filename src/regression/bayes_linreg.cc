#include "regression/bayes_linreg.h"

#include <cstddef>

#include "common/check.h"

namespace nmc::regression {

ExactBayesLinReg::ExactBayesLinReg(const BayesLinRegOptions& options)
    : options_(options),
      precision_(options.dim, options.dim),
      moment_(static_cast<size_t>(options.dim), 0.0) {
  NMC_CHECK_GE(options.dim, 1);
  static_assert(kPriorVariance > 0.0);
  // S0^{-1} = (1/kPriorVariance) I; m0 = 0 so b starts at 0.
  for (int i = 0; i < options.dim; ++i) {
    precision_.At(i, i) = 1.0 / kPriorVariance;
  }
}

void ExactBayesLinReg::Update(const Vector& x, double y) {
  NMC_CHECK_EQ(x.size(), static_cast<size_t>(options_.dim));
  precision_.AddOuterProduct(x, streams::kNoisePrecision);
  for (int i = 0; i < options_.dim; ++i) {
    moment_[static_cast<size_t>(i)] +=
        streams::kNoisePrecision * y * x[static_cast<size_t>(i)];
  }
  ++updates_;
}

bool ExactBayesLinReg::PosteriorMean(Vector* mean) const {
  return SolveSpd(precision_, moment_, mean);
}

bool Predict(const Matrix& precision, const Vector& moment, const Vector& x,
             PredictiveDistribution* out) {
  NMC_CHECK(out != nullptr);
  NMC_CHECK_EQ(x.size(), static_cast<size_t>(precision.rows()));
  Matrix lower;
  if (!CholeskyFactor(precision, &lower)) return false;
  const Vector mean = CholeskySolve(lower, moment);
  const Vector lambda_inv_x = CholeskySolve(lower, x);
  double dot_mean = 0.0, quad = 0.0;
  for (size_t j = 0; j < x.size(); ++j) {
    dot_mean += mean[j] * x[j];
    quad += x[j] * lambda_inv_x[j];
  }
  out->mean = dot_mean;
  out->variance = 1.0 / streams::kNoisePrecision + quad;
  return true;
}

}  // namespace nmc::regression
