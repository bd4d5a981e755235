#include "streams/permutation.h"

#include <cmath>

#include "common/check.h"
#include "common/huge_pages.h"
#include "common/rng.h"

namespace nmc::streams {

std::vector<double> RandomlyPermuted(std::vector<double> values,
                                     uint64_t seed) {
  common::Rng rng(seed);
  rng.Shuffle(&values);
  return values;
}

std::vector<double> SignMultiset(int64_t n, double fraction_positive) {
  NMC_CHECK_GE(n, 0);
  NMC_CHECK_GE(fraction_positive, 0.0);
  NMC_CHECK_LE(fraction_positive, 1.0);
  const int64_t positives =
      static_cast<int64_t>(fraction_positive * static_cast<double>(n));
  std::vector<double> values =
      common::ReserveStreamBuffer<double>(static_cast<size_t>(n));
  values.assign(static_cast<size_t>(n), -1.0);
  for (int64_t i = 0; i < positives; ++i) values[static_cast<size_t>(i)] = 1.0;
  return values;
}

std::vector<double> OscillatingMultiset(int64_t n) {
  NMC_CHECK_GE(n, 0);
  std::vector<double> values =
      common::ReserveStreamBuffer<double>(static_cast<size_t>(n));
  values.resize(static_cast<size_t>(n));
  for (int64_t t = 0; t < n; ++t) {
    const double td = static_cast<double>(t);
    values[static_cast<size_t>(t)] = std::sin(0.37 * td) * std::cos(0.011 * td * td);
  }
  return values;
}

std::vector<double> SkewedMultiset(int64_t n, int64_t num_heavy,
                                   double delta) {
  NMC_CHECK_GE(n, 0);
  NMC_CHECK_GE(num_heavy, 0);
  NMC_CHECK_LE(num_heavy, n);
  NMC_CHECK_GE(delta, 0.0);
  NMC_CHECK_LE(delta, 1.0);
  std::vector<double> values =
      common::ReserveStreamBuffer<double>(static_cast<size_t>(n));
  values.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    if (i < num_heavy) {
      values[static_cast<size_t>(i)] = (i % 2 == 0) ? 1.0 : -1.0;
    } else {
      values[static_cast<size_t>(i)] = (i % 2 == 0) ? delta : -delta;
    }
  }
  return values;
}

std::vector<double> BlockMultiset(int64_t n) {
  NMC_CHECK_GE(n, 0);
  std::vector<double> values =
      common::ReserveStreamBuffer<double>(static_cast<size_t>(n));
  values.assign(static_cast<size_t>(n), -1.0);
  for (int64_t i = 0; i < n / 2; ++i) values[static_cast<size_t>(i)] = 1.0;
  return values;
}

std::vector<double> MakeAdversaryMultiset(const std::string& name, int64_t n) {
  if (name == "balanced") return SignMultiset(n, 0.5);
  if (name == "biased") return SignMultiset(n, 0.7);
  if (name == "oscillating") return OscillatingMultiset(n);
  if (name == "skewed") return SkewedMultiset(n, n / 100, 0.01);
  if (name == "blocks") return BlockMultiset(n);
  NMC_CHECK(false);
  return {};
}

}  // namespace nmc::streams
