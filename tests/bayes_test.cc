#include <cmath>
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "regression/bayes_linreg.h"
#include "regression/distributed_linreg.h"
#include "sim/assignment.h"
#include "streams/regression_data.h"

namespace nmc::regression {
namespace {

BayesLinRegOptions ModelOptions(int dim) {
  BayesLinRegOptions options;
  options.dim = dim;
  return options;
}

TEST(ExactBayesTest, PrecisionMatchesClosedForm) {
  ExactBayesLinReg model(ModelOptions(2));
  model.Update({1.0, 2.0}, 0.5);
  model.Update({-1.0, 0.5}, -0.2);
  static_assert(kPriorVariance == 10.0 && streams::kNoisePrecision == 25.0);
  // Lambda = I/10 + 25 * (x1 x1^T + x2 x2^T).
  Matrix expected(2, 2);
  expected.At(0, 0) = 0.1;
  expected.At(1, 1) = 0.1;
  expected.AddOuterProduct({1.0, 2.0}, 25.0);
  expected.AddOuterProduct({-1.0, 0.5}, 25.0);
  EXPECT_LT(Matrix::MaxAbsDiff(model.precision(), expected), 1e-12);
  // b = 25 * (0.5*x1 - 0.2*x2).
  EXPECT_NEAR(model.moment()[0], 25.0 * (0.5 * 1.0 - 0.2 * -1.0), 1e-12);
  EXPECT_NEAR(model.moment()[1], 25.0 * (0.5 * 2.0 - 0.2 * 0.5), 1e-12);
  EXPECT_EQ(model.updates(), 2);
}

TEST(ExactBayesTest, PosteriorMeanConvergesToTrueWeights) {
  streams::RegressionDataOptions data_options;
  data_options.dim = 4;
  data_options.seed = 3;
  const auto data = streams::GenerateRegressionData(20000, data_options);

  ExactBayesLinReg model(ModelOptions(4));
  for (const auto& s : data.samples) model.Update(s.x, s.y);
  Vector mean;
  ASSERT_TRUE(model.PosteriorMean(&mean));
  EXPECT_LT(NormDiff(mean, data.true_weights),
            0.05 * Norm(data.true_weights) + 0.05);
}

TEST(ExactBayesTest, PriorDominatesWithNoData) {
  ExactBayesLinReg model(ModelOptions(3));
  Vector mean;
  ASSERT_TRUE(model.PosteriorMean(&mean));
  EXPECT_DOUBLE_EQ(Norm(mean), 0.0);  // m0 = 0
}

DistributedLinRegOptions TrackerOptions(int dim, int64_t n) {
  DistributedLinRegOptions options;
  options.model = ModelOptions(dim);
  options.horizon_n = n;
  options.seed = 7;
  return options;
}

TEST(DistributedLinRegTest, TrackedPrecisionCloseToExact) {
  const int64_t n = 4000;
  const int dim = 3;
  streams::RegressionDataOptions data_options;
  data_options.dim = dim;
  data_options.seed = 11;
  const auto data = streams::GenerateRegressionData(n, data_options);

  ExactBayesLinReg exact(ModelOptions(dim));
  DistributedLinRegTracker tracker(4, TrackerOptions(dim, n));
  sim::RoundRobinAssignment psi(4);
  for (int64_t t = 0; t < n; ++t) {
    const auto& s = data.samples[static_cast<size_t>(t)];
    exact.Update(s.x, s.y);
    tracker.ProcessUpdate(psi.NextSite(t, s.y), s.x, s.y);
  }

  // Every diagonal precision entry is a positive-sum counter; off-diagonals
  // and moments are non-monotonic. All must be within the counter accuracy
  // relative to their own magnitude (plus slack for near-zero entries).
  const Matrix tracked = tracker.TrackedPrecision();
  const Matrix reference = exact.precision();
  for (int i = 0; i < dim; ++i) {
    for (int j = 0; j < dim; ++j) {
      const double truth = reference.At(i, j);
      EXPECT_NEAR(tracked.At(i, j), truth,
                  0.05 * std::fabs(truth) + 0.05 * n / 100.0)
          << i << "," << j;
    }
  }
}

TEST(DistributedLinRegTest, PosteriorMeanCloseToExactAndTruth) {
  const int64_t n = 6000;
  const int dim = 4;
  streams::RegressionDataOptions data_options;
  data_options.dim = dim;
  data_options.seed = 13;
  const auto data = streams::GenerateRegressionData(n, data_options);

  ExactBayesLinReg exact(ModelOptions(dim));
  DistributedLinRegTracker tracker(2, TrackerOptions(dim, n));
  sim::RoundRobinAssignment psi(2);
  for (int64_t t = 0; t < n; ++t) {
    const auto& s = data.samples[static_cast<size_t>(t)];
    exact.Update(s.x, s.y);
    tracker.ProcessUpdate(psi.NextSite(t, s.y), s.x, s.y);
  }

  Vector exact_mean, tracked_mean;
  ASSERT_TRUE(exact.PosteriorMean(&exact_mean));
  ASSERT_TRUE(tracker.PosteriorMean(&tracked_mean));
  // Tracked posterior mean close to the exact posterior mean...
  EXPECT_LT(NormDiff(tracked_mean, exact_mean), 0.15 * Norm(exact_mean) + 0.1);
  // ...and both close to the generating weights.
  EXPECT_LT(NormDiff(tracked_mean, data.true_weights),
            0.2 * Norm(data.true_weights) + 0.1);
}

TEST(DistributedLinRegTest, CommunicationSublinearInEntryStreams) {
  const int64_t n = 4000;
  const int dim = 2;
  streams::RegressionDataOptions data_options;
  data_options.dim = dim;
  data_options.seed = 17;
  const auto data = streams::GenerateRegressionData(n, data_options);
  DistributedLinRegTracker tracker(2, TrackerOptions(dim, n));
  sim::RoundRobinAssignment psi(2);
  for (int64_t t = 0; t < n; ++t) {
    const auto& s = data.samples[static_cast<size_t>(t)];
    tracker.ProcessUpdate(psi.NextSite(t, s.y), s.x, s.y);
  }
  // 5 counters (3 xx + 2 xy), each at most 2 messages per update in the
  // straight stage; diagonal entries drift upward and go SBC, so the total
  // should be well below the ceiling.
  const auto stats = tracker.stats();
  EXPECT_GT(stats.total(), 0);
  EXPECT_LT(stats.total(), 5 * 2 * n);
  EXPECT_EQ(tracker.updates_processed(), n);
}

// The paper's caveat ("the actual error of our estimate for m_t ... also
// depends on how sensitive the precision matrix's inverse is when it is
// perturbed"): with nearly collinear features the precision matrix is
// ill-conditioned and the same per-entry tracking error inflates in the
// recovered mean.
TEST(ConditioningTest, CollinearFeaturesAmplifyTrackedMeanError) {
  const int64_t n = 4000;
  const int dim = 2;
  common::Rng rng(29);

  auto run_with_collinearity = [&](double collinearity_noise) {
    // x2 = x1 + noise: smaller noise -> worse conditioning.
    std::vector<streams::RegressionSample> samples(static_cast<size_t>(n));
    const Vector w{1.0, -0.5};
    for (auto& s : samples) {
      const double x1 = 0.9 * (2.0 * rng.UniformDouble() - 1.0);
      const double x2 =
          std::clamp(x1 + collinearity_noise * rng.Gaussian(), -1.0, 1.0);
      s.x = {x1, x2};
      s.y = w[0] * x1 + w[1] * x2 + rng.Gaussian(0.0, 0.2);
    }
    rng.Shuffle(&samples);

    ExactBayesLinReg exact(ModelOptions(dim));
    DistributedLinRegTracker tracker(2, TrackerOptions(dim, n));
    sim::RoundRobinAssignment psi(2);
    for (int64_t t = 0; t < n; ++t) {
      const auto& s = samples[static_cast<size_t>(t)];
      exact.Update(s.x, s.y);
      tracker.ProcessUpdate(psi.NextSite(t, s.y), s.x, s.y);
    }
    Vector exact_mean, tracked_mean;
    EXPECT_TRUE(exact.PosteriorMean(&exact_mean));
    // Near-singular precision can be perturbed clean out of the PD cone
    // by the per-entry tracking error (it happens for a sizable fraction
    // of data seeds) — the extreme form of the very sensitivity this test
    // demonstrates, reported as unbounded amplification.
    if (!tracker.PosteriorMean(&tracked_mean)) {
      return std::numeric_limits<double>::infinity();
    }
    return NormDiff(tracked_mean, exact_mean);
  };

  const double well_conditioned = run_with_collinearity(0.5);
  const double ill_conditioned = run_with_collinearity(0.02);
  // The well-conditioned recovery must succeed outright; the same
  // per-entry accuracy then shows visibly worse recovered-mean error when
  // the precision matrix is near-singular.
  ASSERT_TRUE(std::isfinite(well_conditioned));
  EXPECT_GT(ill_conditioned, 2.0 * well_conditioned);
}

TEST(PredictiveTest, MatchesClosedFormOnIdentityPrecision) {
  // Lambda = I, b = (2, 0): mean = (2, 0); for x = (1, 1):
  // predictive mean 2, variance 1/beta + x^T x = 1/25 + 2.
  Matrix precision = Matrix::Identity(2);
  PredictiveDistribution pred;
  ASSERT_TRUE(Predict(precision, {2.0, 0.0}, {1.0, 1.0}, &pred));
  EXPECT_DOUBLE_EQ(pred.mean, 2.0);
  EXPECT_DOUBLE_EQ(pred.variance, 0.04 + 2.0);
}

TEST(PredictiveTest, VarianceShrinksWithData) {
  // More data -> larger precision -> smaller predictive variance, floored
  // at the irreducible noise 1/beta.
  streams::RegressionDataOptions data_options;
  data_options.dim = 3;
  data_options.seed = 21;
  const auto data = streams::GenerateRegressionData(5000, data_options);
  ExactBayesLinReg model(ModelOptions(3));
  const Vector query{0.5, -0.5, 0.25};
  PredictiveDistribution before, mid, after;
  ASSERT_TRUE(Predict(model.precision(), model.moment(), query, &before));
  for (int64_t t = 0; t < 100; ++t) {
    model.Update(data.samples[static_cast<size_t>(t)].x,
                 data.samples[static_cast<size_t>(t)].y);
  }
  ASSERT_TRUE(Predict(model.precision(), model.moment(), query, &mid));
  for (int64_t t = 100; t < 5000; ++t) {
    model.Update(data.samples[static_cast<size_t>(t)].x,
                 data.samples[static_cast<size_t>(t)].y);
  }
  ASSERT_TRUE(Predict(model.precision(), model.moment(), query, &after));
  EXPECT_GT(before.variance, mid.variance);
  EXPECT_GT(mid.variance, after.variance);
  EXPECT_GT(after.variance, 1.0 / 25.0);
}

TEST(PredictiveTest, TrackedPredictionsMatchExact) {
  const int64_t n = 5000;
  const int dim = 3;
  streams::RegressionDataOptions data_options;
  data_options.dim = dim;
  data_options.seed = 23;
  const auto data = streams::GenerateRegressionData(n, data_options);
  ExactBayesLinReg exact(ModelOptions(dim));
  DistributedLinRegTracker tracker(4, TrackerOptions(dim, n));
  sim::RoundRobinAssignment psi(4);
  for (int64_t t = 0; t < n; ++t) {
    const auto& s = data.samples[static_cast<size_t>(t)];
    exact.Update(s.x, s.y);
    tracker.ProcessUpdate(psi.NextSite(t, s.y), s.x, s.y);
  }
  const Vector query{0.3, -0.7, 0.1};
  PredictiveDistribution exact_pred, tracked_pred;
  ASSERT_TRUE(
      Predict(exact.precision(), exact.moment(), query, &exact_pred));
  ASSERT_TRUE(tracker.Predict(query, &tracked_pred));
  EXPECT_NEAR(tracked_pred.mean, exact_pred.mean,
              0.1 * std::fabs(exact_pred.mean) + 0.05);
  EXPECT_NEAR(tracked_pred.variance, exact_pred.variance,
              0.15 * exact_pred.variance);
}

TEST(PredictiveTest, RejectsIndefinitePrecision) {
  Matrix bad(2, 2);
  bad.At(0, 0) = 1.0;
  bad.At(1, 1) = -1.0;
  PredictiveDistribution pred;
  EXPECT_FALSE(Predict(bad, {0.0, 0.0}, {1.0, 0.0}, &pred));
}

TEST(DistributedLinRegDeathTest, RejectsOutOfBoundData) {
  DistributedLinRegTracker tracker(2, TrackerOptions(2, 100));
  EXPECT_DEATH(tracker.ProcessUpdate(0, {5.0, 0.0}, 1.0), "NMC_CHECK");
  EXPECT_DEATH(tracker.ProcessUpdate(0, {0.5, 0.0}, 100.0), "NMC_CHECK");
}

}  // namespace
}  // namespace nmc::regression
