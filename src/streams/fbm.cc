#include "streams/fbm.h"

#include <cmath>
#include <complex>

#include "common/check.h"
#include "common/huge_pages.h"
#include "common/rng.h"
#include "streams/fft.h"

namespace nmc::streams {

double FgnAutocovariance(double hurst, int64_t lag) {
  NMC_CHECK_GT(hurst, 0.0);
  NMC_CHECK_LT(hurst, 1.0);
  const double h = std::fabs(static_cast<double>(lag));
  const double two_h = 2.0 * hurst;
  return 0.5 * (std::pow(h + 1.0, two_h) - 2.0 * std::pow(h, two_h) +
                std::pow(std::fabs(h - 1.0), two_h));
}

std::vector<double> FgnDaviesHarte(int64_t n, double hurst, uint64_t seed) {
  NMC_CHECK_GE(n, 1);
  NMC_CHECK_GT(hurst, 0.0);
  NMC_CHECK_LT(hurst, 1.0);

  // Circulant embedding of the (N+1)-point covariance, N a power of two
  // >= n, into a circulant of size m = 2N whose eigenvalues are the FFT of
  // its first row.
  const size_t big_n = NextPowerOfTwo(static_cast<size_t>(n));
  const size_t m = 2 * big_n;

  std::vector<std::complex<double>> row =
      common::ReserveStreamBuffer<std::complex<double>>(m);
  row.resize(m);
  for (size_t j = 0; j <= big_n; ++j) {
    row[j] = FgnAutocovariance(hurst, static_cast<int64_t>(j));
  }
  for (size_t j = 1; j < big_n; ++j) row[m - j] = row[j];

  Fft(&row);
  std::vector<double> lambda = common::ReserveStreamBuffer<double>(m);
  lambda.resize(m);
  for (size_t j = 0; j < m; ++j) {
    double eig = row[j].real();
    // The fGn embedding is provably non-negative definite; tolerate only
    // floating-point dust below zero.
    NMC_CHECK_GT(eig, -1e-8);
    lambda[j] = std::max(eig, 0.0);
  }

  common::Rng rng(seed);
  std::vector<std::complex<double>> z =
      common::ReserveStreamBuffer<std::complex<double>>(m);
  z.resize(m);
  const double md = static_cast<double>(m);
  z[0] = std::sqrt(lambda[0] / md) * rng.Gaussian();
  z[big_n] = std::sqrt(lambda[big_n] / md) * rng.Gaussian();
  for (size_t j = 1; j < big_n; ++j) {
    const double scale = std::sqrt(lambda[j] / (2.0 * md));
    const std::complex<double> g(rng.Gaussian(), rng.Gaussian());
    z[j] = scale * g;
    z[m - j] = std::conj(z[j]);
  }

  Fft(&z);
  std::vector<double> fgn =
      common::ReserveStreamBuffer<double>(static_cast<size_t>(n));
  fgn.resize(static_cast<size_t>(n));
  for (int64_t t = 0; t < n; ++t) {
    fgn[static_cast<size_t>(t)] = z[static_cast<size_t>(t)].real();
  }
  return fgn;
}

std::vector<double> FgnHosking(int64_t n, double hurst, uint64_t seed) {
  NMC_CHECK_GE(n, 1);
  NMC_CHECK_GT(hurst, 0.0);
  NMC_CHECK_LT(hurst, 1.0);

  common::Rng rng(seed);
  std::vector<double> x(static_cast<size_t>(n));
  x[0] = rng.Gaussian();  // gamma(0) = 1
  if (n == 1) return x;

  // Durbin-Levinson recursion for the conditional mean/variance of the
  // next value given the past.
  std::vector<double> phi(static_cast<size_t>(n), 0.0);
  std::vector<double> phi_prev(static_cast<size_t>(n), 0.0);
  double v = 1.0;

  for (int64_t t = 1; t < n; ++t) {
    double numerator = FgnAutocovariance(hurst, t);
    for (int64_t j = 1; j < t; ++j) {
      numerator -= phi_prev[static_cast<size_t>(j)] *
                   FgnAutocovariance(hurst, t - j);
    }
    const double reflection = numerator / v;
    phi[static_cast<size_t>(t)] = reflection;
    for (int64_t j = 1; j < t; ++j) {
      phi[static_cast<size_t>(j)] =
          phi_prev[static_cast<size_t>(j)] -
          reflection * phi_prev[static_cast<size_t>(t - j)];
    }
    v *= (1.0 - reflection * reflection);
    NMC_CHECK_GT(v, 0.0);

    double mean = 0.0;
    for (int64_t j = 1; j <= t; ++j) {
      mean += phi[static_cast<size_t>(j)] * x[static_cast<size_t>(t - j)];
    }
    x[static_cast<size_t>(t)] = mean + std::sqrt(v) * rng.Gaussian();
    std::swap(phi, phi_prev);
    std::fill(phi.begin(), phi.end(), 0.0);
  }
  return x;
}

std::vector<double> CumulativeSum(const std::vector<double>& increments) {
  std::vector<double> path =
      common::ReserveStreamBuffer<double>(increments.size());
  path.resize(increments.size());
  double sum = 0.0;
  for (size_t t = 0; t < increments.size(); ++t) {
    sum += increments[t];
    path[t] = sum;
  }
  return path;
}

}  // namespace nmc::streams
