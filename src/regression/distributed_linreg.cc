#include "regression/distributed_linreg.h"

#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace nmc::regression {

namespace {

// Index of (i, j), i <= j, in a row-major upper triangle of a d x d matrix.
size_t TriangleIndex(int i, int j, int d) {
  NMC_CHECK_LE(i, j);
  return static_cast<size_t>(i) * static_cast<size_t>(d) -
         static_cast<size_t>(i) * static_cast<size_t>(i + 1) / 2 +
         static_cast<size_t>(j);
}

}  // namespace

DistributedLinRegTracker::DistributedLinRegTracker(
    int num_sites, const DistributedLinRegOptions& options)
    : num_sites_(num_sites), options_(options) {
  NMC_CHECK_GE(num_sites, 1);
  static_assert(kFeatureBound > 0.0);
  NMC_CHECK_GT(options.response_bound, 0.0);
  const double beta = options.model.noise_precision;
  xx_scale_ = beta * kFeatureBound * kFeatureBound;
  xy_scale_ = beta * kFeatureBound * options.response_bound;

  common::Rng seeder(options.seed ^ 0x5bd1e995cc9e2d51ULL);
  core::CounterOptions counter_options;
  counter_options.epsilon = options.counter_epsilon;
  counter_options.horizon_n = options.horizon_n;
  counter_options.alpha = options.alpha;
  counter_options.beta = options.beta;
  counter_options.drift_mode = core::DriftMode::kZeroDrift;

  const int d = options.model.dim;
  xx_counters_.reserve(static_cast<size_t>(d) * static_cast<size_t>(d + 1) / 2);
  for (int i = 0; i < d; ++i) {
    for (int j = i; j < d; ++j) {
      counter_options.seed = seeder.NextU64();
      xx_counters_.push_back(std::make_unique<core::NonMonotonicCounter>(
          num_sites, counter_options));
    }
  }
  xy_counters_.reserve(static_cast<size_t>(d));
  for (int i = 0; i < d; ++i) {
    counter_options.seed = seeder.NextU64();
    xy_counters_.push_back(std::make_unique<core::NonMonotonicCounter>(
        num_sites, counter_options));
  }
}

core::NonMonotonicCounter* DistributedLinRegTracker::XxCounter(int i, int j) {
  return xx_counters_[TriangleIndex(i, j, options_.model.dim)].get();
}

const core::NonMonotonicCounter* DistributedLinRegTracker::XxCounter(
    int i, int j) const {
  return xx_counters_[TriangleIndex(i, j, options_.model.dim)].get();
}

void DistributedLinRegTracker::ProcessUpdate(int site_id, const Vector& x,
                                             double y) {
  const int d = options_.model.dim;
  NMC_CHECK_EQ(x.size(), static_cast<size_t>(d));
  NMC_CHECK_LE(std::fabs(y), options_.response_bound);
  const double beta = options_.model.noise_precision;
  for (int i = 0; i < d; ++i) {
    NMC_CHECK_LE(std::fabs(x[static_cast<size_t>(i)]), kFeatureBound);
    for (int j = i; j < d; ++j) {
      const double value = beta * x[static_cast<size_t>(i)] *
                           x[static_cast<size_t>(j)] / xx_scale_;
      XxCounter(i, j)->ProcessUpdate(site_id, value);
    }
    const double value = beta * y * x[static_cast<size_t>(i)] / xy_scale_;
    xy_counters_[static_cast<size_t>(i)]->ProcessUpdate(site_id, value);
  }
  ++updates_processed_;
}

Matrix DistributedLinRegTracker::TrackedPrecision() const {
  const int d = options_.model.dim;
  Matrix precision(d, d);
  for (int i = 0; i < d; ++i) {
    precision.At(i, i) = 1.0 / options_.model.prior_variance;
  }
  for (int i = 0; i < d; ++i) {
    for (int j = i; j < d; ++j) {
      const double tracked = XxCounter(i, j)->Estimate() * xx_scale_;
      precision.At(i, j) += tracked;
      if (i != j) precision.At(j, i) += tracked;
    }
  }
  return precision;
}

Vector DistributedLinRegTracker::TrackedMoment() const {
  const int d = options_.model.dim;
  Vector moment(static_cast<size_t>(d), 0.0);
  for (int i = 0; i < d; ++i) {
    moment[static_cast<size_t>(i)] =
        xy_counters_[static_cast<size_t>(i)]->Estimate() * xy_scale_;
  }
  return moment;
}

bool DistributedLinRegTracker::PosteriorMean(Vector* mean) const {
  return SolveSpd(TrackedPrecision(), TrackedMoment(), mean);
}

bool DistributedLinRegTracker::Predict(const Vector& x,
                                       PredictiveDistribution* out) const {
  return regression::Predict(TrackedPrecision(), TrackedMoment(),
                             options_.model.noise_precision, x, out);
}

sim::MessageStats DistributedLinRegTracker::stats() const {
  sim::MessageStats total;
  for (const auto& c : xx_counters_) total += c->stats();
  for (const auto& c : xy_counters_) total += c->stats();
  return total;
}

}  // namespace nmc::regression
