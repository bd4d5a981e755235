#include "common/rng.h"

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/statistics.h"

namespace nmc::common {
namespace {

TEST(RngTest, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDifferentSequences) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() != b.NextU64()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, UniformDoubleRangeAndMean) {
  Rng rng(7);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    stat.Add(u);
  }
  EXPECT_NEAR(stat.mean(), 0.5, 0.01);
  // Uniform variance is 1/12.
  EXPECT_NEAR(stat.variance(), 1.0 / 12.0, 0.01);
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(RngTest, UniformIntUnbiasedOverPowerOfTwoRange) {
  // Range of 3 exercises the rejection path (2^64 mod 3 != 0).
  Rng rng(13);
  int64_t counts[3] = {0, 0, 0};
  const int n = 90000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(0, 2)];
  for (int64_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 1.0 / 3.0, 0.01);
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  for (double p : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    int heads = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) heads += rng.Bernoulli(p) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(heads) / n, p, 0.01) << "p=" << p;
  }
}

TEST(RngTest, BernoulliClampsOutOfRange) {
  Rng rng(19);
  EXPECT_FALSE(rng.Bernoulli(-0.5));
  EXPECT_TRUE(rng.Bernoulli(1.5));
}

TEST(RngTest, GaussianMoments) {
  Rng rng(23);
  RunningStat stat;
  for (int i = 0; i < 200000; ++i) stat.Add(rng.Gaussian());
  EXPECT_NEAR(stat.mean(), 0.0, 0.01);
  EXPECT_NEAR(stat.variance(), 1.0, 0.02);
}

TEST(RngTest, GaussianTailMass) {
  Rng rng(29);
  int beyond_two_sigma = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (std::fabs(rng.Gaussian()) > 2.0) ++beyond_two_sigma;
  }
  // P(|Z| > 2) ~ 0.0455.
  EXPECT_NEAR(static_cast<double>(beyond_two_sigma) / n, 0.0455, 0.006);
}

TEST(RngTest, GaussianMeanStddev) {
  Rng rng(31);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) stat.Add(rng.Gaussian(3.0, 2.0));
  EXPECT_NEAR(stat.mean(), 3.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.05);
}

TEST(RngTest, GeometricMeanMatchesTheory) {
  Rng rng(37);
  for (double p : {0.1, 0.5, 0.9}) {
    RunningStat stat;
    for (int i = 0; i < 50000; ++i) {
      stat.Add(static_cast<double>(rng.Geometric(p)));
    }
    // E[failures before first success] = (1-p)/p.
    EXPECT_NEAR(stat.mean(), (1.0 - p) / p, 0.1 * (1.0 - p) / p + 0.02)
        << "p=" << p;
  }
}

TEST(RngTest, GeometricWithPOneIsZero) {
  Rng rng(41);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Geometric(1.0), 0);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(43);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ShuffleIsApproximatelyUniform) {
  // Position of element 0 after shuffling [0,1,2,3] should be uniform.
  Rng rng(47);
  int64_t position_counts[4] = {0, 0, 0, 0};
  const int trials = 40000;
  for (int t = 0; t < trials; ++t) {
    std::vector<int> v{0, 1, 2, 3};
    rng.Shuffle(&v);
    for (int i = 0; i < 4; ++i) {
      if (v[static_cast<size_t>(i)] == 0) ++position_counts[i];
    }
  }
  for (int64_t c : position_counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.25, 0.01);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(53);
  Rng child = parent.Fork();
  // The child stream should not be identical to the parent's continuation.
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextU64() != child.NextU64()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, SignIsPlusMinusOne) {
  Rng rng(59);
  int64_t sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const int s = rng.Sign(0.5);
    ASSERT_TRUE(s == 1 || s == -1);
    sum += s;
  }
  EXPECT_LT(std::fabs(static_cast<double>(sum)) / n, 0.02);
}

}  // namespace
}  // namespace nmc::common
