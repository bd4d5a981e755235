#include "streams/regression_data.h"

#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace nmc::streams {

RegressionData GenerateRegressionData(int64_t n,
                                      const RegressionDataOptions& options) {
  NMC_CHECK_GE(n, 0);
  NMC_CHECK_GE(options.dim, 1);
  NMC_CHECK_GT(options.noise_precision, 0.0);
  static_assert(kFeatureScale > 0.0);

  common::Rng rng(options.seed);
  RegressionData data;
  data.true_weights.resize(static_cast<size_t>(options.dim));
  for (double& w : data.true_weights) w = rng.Gaussian();

  const double noise_stddev = 1.0 / std::sqrt(options.noise_precision);
  data.samples.resize(static_cast<size_t>(n));
  for (auto& sample : data.samples) {
    sample.x.resize(static_cast<size_t>(options.dim));
    double dot = 0.0;
    for (int j = 0; j < options.dim; ++j) {
      const double xj = kFeatureScale * (2.0 * rng.UniformDouble() - 1.0);
      sample.x[static_cast<size_t>(j)] = xj;
      dot += xj * data.true_weights[static_cast<size_t>(j)];
    }
    sample.y = dot + rng.Gaussian(0.0, noise_stddev);
  }
  rng.Shuffle(&data.samples);
  return data;
}

}  // namespace nmc::streams
