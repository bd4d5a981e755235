#include "streams/regression_data.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/statistics.h"

namespace nmc::streams {
namespace {

TEST(RegressionDataTest, ShapesAndBounds) {
  RegressionDataOptions options;
  options.dim = 3;
  options.seed = 1;
  const auto data = GenerateRegressionData(200, options);
  EXPECT_EQ(data.true_weights.size(), 3u);
  ASSERT_EQ(data.samples.size(), 200u);
  for (const auto& s : data.samples) {
    ASSERT_EQ(s.x.size(), 3u);
    for (double xj : s.x) EXPECT_LE(std::fabs(xj), kFeatureScale);
  }
}

TEST(RegressionDataTest, ResponsesFollowModel) {
  RegressionDataOptions options;
  options.dim = 4;
  options.seed = 5;
  const double sigma = 1.0 / std::sqrt(kNoisePrecision);  // noise stddev
  const auto data = GenerateRegressionData(5000, options);
  common::RunningStat residuals;
  for (const auto& s : data.samples) {
    double dot = 0.0;
    for (size_t j = 0; j < s.x.size(); ++j) dot += s.x[j] * data.true_weights[j];
    residuals.Add(s.y - dot);
  }
  EXPECT_NEAR(residuals.mean(), 0.0, 0.1 * sigma);
  EXPECT_NEAR(residuals.stddev(), sigma, 0.1 * sigma);
}

TEST(RegressionDataTest, DeterministicInSeed) {
  RegressionDataOptions options;
  options.seed = 9;
  const auto a = GenerateRegressionData(50, options);
  const auto b = GenerateRegressionData(50, options);
  EXPECT_EQ(a.true_weights, b.true_weights);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].x, b.samples[i].x);
    EXPECT_EQ(a.samples[i].y, b.samples[i].y);
  }
}

TEST(RegressionDataTest, DifferentSeedsDiffer) {
  RegressionDataOptions a_options;
  a_options.seed = 1;
  RegressionDataOptions b_options;
  b_options.seed = 2;
  const auto a = GenerateRegressionData(50, a_options);
  const auto b = GenerateRegressionData(50, b_options);
  EXPECT_NE(a.true_weights, b.true_weights);
}

}  // namespace
}  // namespace nmc::streams
