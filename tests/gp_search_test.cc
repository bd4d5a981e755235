#include "core/gp_search.h"

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "streams/bernoulli.h"

namespace nmc::core {
namespace {

// Feeds the exact running count of a Bernoulli(mu) stream to GPSearch and
// returns it after the full stream.
GpSearch RunOnStream(int64_t n, double mu, uint64_t seed) {
  GpSearch gp(n);
  const auto stream = streams::BernoulliStream(n, mu, seed);
  double sum = 0.0;
  for (int64_t t = 0; t < n; ++t) {
    sum += stream[static_cast<size_t>(t)];
    gp.Observe(t + 1, sum);
  }
  return gp;
}

TEST(GpSearchTest, ResolvesPositiveDriftAccurately) {
  for (double mu : {0.2, 0.5, 1.0}) {
    const auto gp = RunOnStream(1 << 16, mu, 42);
    ASSERT_TRUE(gp.resolved()) << "mu=" << mu;
    EXPECT_NEAR(gp.mu_hat(), mu, 0.25 * mu + 0.02) << "mu=" << mu;
  }
}

TEST(GpSearchTest, ResolvesNegativeDrift) {
  const auto gp = RunOnStream(1 << 16, -0.5, 43);
  ASSERT_TRUE(gp.resolved());
  EXPECT_NEAR(gp.mu_hat(), -0.5, 0.15);
}

TEST(GpSearchTest, DoesNotResolveZeroDrift) {
  // For mu = 0 the count stays near sqrt(t) << Hoeffding width; across
  // many seeds it must never (falsely) report.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const auto gp = RunOnStream(1 << 14, 0.0, 100 + seed);
    EXPECT_FALSE(gp.resolved()) << "seed=" << seed;
  }
}

TEST(GpSearchTest, ResolutionTimeScalesAsInverseMuSquared) {
  // t* ~ log(n)/ (mu eps0)^2: halving mu should roughly quadruple t*.
  const auto gp_fast = RunOnStream(1 << 18, 0.8, 7);
  const auto gp_slow = RunOnStream(1 << 18, 0.2, 7);
  ASSERT_TRUE(gp_fast.resolved());
  ASSERT_TRUE(gp_slow.resolved());
  const double ratio = static_cast<double>(gp_slow.resolution_time()) /
                       static_cast<double>(gp_fast.resolution_time());
  // Expect ~16x; allow a broad band for the geometric checkpoint grid.
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 80.0);
}

TEST(GpSearchTest, ResolutionBeforeTheoreticalDeadline) {
  const double mu = 0.5, eps0 = GpSearch::kEpsilon0;
  const int64_t n = 1 << 18;
  const auto gp = RunOnStream(n, mu, 11);
  ASSERT_TRUE(gp.resolved());
  // Theta(log n / (mu eps0)^2) with a generous constant.
  const double deadline =
      64.0 * std::log(static_cast<double>(n)) / ((mu * eps0) * (mu * eps0));
  EXPECT_LT(static_cast<double>(gp.resolution_time()), deadline);
}

TEST(GpSearchTest, GeometricCheckpointsSkipIntermediateTimes) {
  GpSearch gp(1 << 16);
  // A huge count at a non-checkpoint time right after a checkpoint must
  // wait for the next power of two.
  gp.Observe(4, 4.0);     // checkpoint, not yet confident
  gp.Observe(5, 1e9);     // between checkpoints: ignored
  EXPECT_FALSE(gp.resolved());
  gp.Observe(8, 8.0e9);   // next checkpoint: evaluated
  EXPECT_TRUE(gp.resolved());
}

TEST(GpSearchTest, NoOpAfterResolution) {
  GpSearch gp(1 << 10);
  gp.Observe(1024, 1e12);
  ASSERT_TRUE(gp.resolved());
  const double mu = gp.mu_hat();
  gp.Observe(2048, 0.0);  // would contradict; must be ignored
  EXPECT_TRUE(gp.resolved());
  EXPECT_DOUBLE_EQ(gp.mu_hat(), mu);
}

}  // namespace
}  // namespace nmc::core
