#include "streams/bernoulli.h"

#include <algorithm>
#include <cmath>

#include "common/batch_rng.h"
#include "common/check.h"
#include "common/huge_pages.h"

namespace nmc::streams {

std::vector<double> BernoulliStream(int64_t n, double mu, uint64_t seed) {
  NMC_CHECK_GE(n, 0);
  NMC_CHECK_GE(mu, -1.0);
  NMC_CHECK_LE(mu, 1.0);
  std::vector<double> values =
      common::ReserveStreamBuffer<double>(static_cast<size_t>(n));
  values.resize(static_cast<size_t>(n));
  common::BatchRng(seed).FillSigns(values, (1.0 + mu) / 2.0);
  return values;
}

std::vector<double> FractionalIidStream(int64_t n, double mu, double amplitude,
                                        uint64_t seed) {
  NMC_CHECK_GE(n, 0);
  NMC_CHECK_GE(mu, -1.0);
  NMC_CHECK_LE(mu, 1.0);
  NMC_CHECK_GE(amplitude, 0.0);
  const double a = std::min(1.0 - std::fabs(mu), amplitude);
  // Bulk uniforms, then an in-place affine map (elementwise, so
  // auto-vectorizable).
  std::vector<double> values =
      common::ReserveStreamBuffer<double>(static_cast<size_t>(n));
  values.resize(static_cast<size_t>(n));
  common::BatchRng(seed).FillUniform(values);
  for (double& value : values) value = mu + a * (2.0 * value - 1.0);
  return values;
}

}  // namespace nmc::streams
