#include "streams/zipf.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace nmc::streams {
namespace {

TEST(ZipfTest, ProbabilitiesSumToOne) {
  ZipfSampler zipf(100, 1.1);
  double total = 0.0;
  for (int64_t i = 0; i < 100; ++i) total += zipf.Probability(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, ProbabilitiesDecreasing) {
  ZipfSampler zipf(50, 1.0);
  for (int64_t i = 1; i < 50; ++i) {
    EXPECT_LE(zipf.Probability(i), zipf.Probability(i - 1) + 1e-15);
  }
}

TEST(ZipfTest, ZeroExponentIsUniform) {
  ZipfSampler zipf(10, 0.0);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(zipf.Probability(i), 0.1, 1e-9);
  }
}

TEST(ZipfTest, EmpiricalFrequenciesMatch) {
  ZipfSampler zipf(20, 1.2);
  common::Rng rng(55);
  std::vector<int64_t> counts(20, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const int64_t item = zipf.Sample(&rng);
    ASSERT_GE(item, 0);
    ASSERT_LT(item, 20);
    ++counts[static_cast<size_t>(item)];
  }
  for (int64_t i = 0; i < 20; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[static_cast<size_t>(i)]) / n,
                zipf.Probability(i), 0.005)
        << "item " << i;
  }
}

TEST(ZipfTest, SingletonUniverse) {
  ZipfSampler zipf(1, 2.0);
  common::Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.Sample(&rng), 0);
  EXPECT_DOUBLE_EQ(zipf.Probability(0), 1.0);
}

TEST(ZipfTest, HighSkewConcentratesOnHead) {
  ZipfSampler zipf(1000, 2.0);
  common::Rng rng(77);
  int head = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(&rng) < 3) ++head;
  }
  EXPECT_GT(static_cast<double>(head) / n, 0.8);
}

}  // namespace
}  // namespace nmc::streams
