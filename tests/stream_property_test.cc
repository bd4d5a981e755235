// Cross-cutting property sweeps over the stream generators: determinism,
// bounds, and multiset preservation must hold for every generator the
// benches rely on.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "streams/adversarial.h"
#include "streams/bernoulli.h"
#include "streams/fbm.h"
#include "streams/permutation.h"

namespace nmc::streams {
namespace {

std::vector<double> Generate(const std::string& name, int64_t n,
                             uint64_t seed) {
  if (name == "bernoulli0") return BernoulliStream(n, 0.0, seed);
  if (name == "bernoulli_drift") return BernoulliStream(n, 0.4, seed);
  if (name == "fractional") return FractionalIidStream(n, -0.2, 0.7, seed);
  if (name == "perm_balanced") {
    return RandomlyPermuted(SignMultiset(n, 0.5), seed);
  }
  if (name == "perm_skewed") {
    return RandomlyPermuted(SkewedMultiset(n, n / 50, 0.1), seed);
  }
  if (name == "alternating") return AlternatingStream(n);
  if (name == "sawtooth") return SawtoothStream(n, 32);
  ADD_FAILURE() << name;
  return {};
}

// FNV-1a over the values' IEEE-754 bit patterns, each low byte first.
uint64_t Fnv1a(const std::vector<double>& values) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const double value : values) {
    const uint64_t bits = std::bit_cast<uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

// Pins every value the vector generators emit, bit for bit, so a rewrite
// of a generator (or of the BatchRng kernels under it, in either SIMD
// trim) cannot move a workload's input unnoticed. Odd n leaves a ragged
// tail behind every vector kernel.
TEST(StreamGoldenTest, VectorGeneratorOutputIsPinned) {
  EXPECT_EQ(Fnv1a(BernoulliStream(4097, 0.3, 55)), 0xb9ffe5d0852bc438ull);
  EXPECT_EQ(Fnv1a(FractionalIidStream(4097, 0.1, 0.5, 56)),
            0xc49ae74826bb904cull);
  EXPECT_EQ(Fnv1a(AlternatingStream(4097)), 0x43010ba9c14b1db8ull);
  EXPECT_EQ(Fnv1a(SawtoothStream(4097, 37)), 0x447bd28fb17bb0b8ull);
}

// The same pins at page scale: 2^20 + 3 doubles span several 2 MiB pages,
// so these buffers take the huge-page-advised path, and the permutation
// shuffles across page boundaries. The advice may change which pages hold
// a stream, never a bit of it.
TEST(StreamGoldenTest, PageScaleOutputIsPinned) {
  const int64_t n = (int64_t{1} << 20) + 3;
  EXPECT_EQ(Fnv1a(BernoulliStream(n, 0.3, 55)), 0x285ddc0270c230d8ull);
  EXPECT_EQ(Fnv1a(FractionalIidStream(n, 0.1, 0.5, 56)),
            0x06428e4a8aab0dafull);
  EXPECT_EQ(Fnv1a(RandomlyPermuted(MakeAdversaryMultiset("balanced", n), 57)),
            0x081dc283aefa3458ull);
}

class StreamPropertyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StreamPropertyTest, CorrectLengthAndBounded) {
  const auto stream = Generate(GetParam(), 2048, 5);
  ASSERT_EQ(stream.size(), 2048u);
  for (double v : stream) {
    EXPECT_LE(std::fabs(v), 1.0) << GetParam();
  }
}

TEST_P(StreamPropertyTest, DeterministicInSeed) {
  EXPECT_EQ(Generate(GetParam(), 512, 9), Generate(GetParam(), 512, 9));
}

TEST_P(StreamPropertyTest, EmptyStreamSupported) {
  EXPECT_TRUE(Generate(GetParam(), 0, 1).empty());
}

INSTANTIATE_TEST_SUITE_P(AllModels, StreamPropertyTest,
                         ::testing::Values("bernoulli0", "bernoulli_drift",
                                           "fractional", "perm_balanced",
                                           "perm_skewed", "alternating",
                                           "sawtooth"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

// fGn generation must also hold up outside the paper's H >= 1/2 range
// (the Davies-Harte embedding is valid on all of (0, 1)).
class FgnHurstTest : public ::testing::TestWithParam<double> {};

TEST_P(FgnHurstTest, GeneratesWithPlausibleMarginal) {
  // Check the second moment E[x^2] = 1, which holds for every H; the
  // sample MEAN is not a usable check near H = 1 (it fluctuates as
  // n^{H-1}, e.g. ~0.66 at H = 0.95 and n = 4096 — that slow averaging is
  // the defining feature of long-range dependence). Average over seeds to
  // tame the estimator's own LRD.
  const double hurst = GetParam();
  const int trials = 32;
  const int64_t n = 1 << 12;
  double acc = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    const auto fgn = FgnDaviesHarte(n, hurst, 33 + static_cast<uint64_t>(trial));
    for (double x : fgn) acc += x * x;
  }
  const double second_moment = acc / (static_cast<double>(n) * trials);
  EXPECT_NEAR(second_moment, 1.0, 0.35) << "H=" << hurst;
}

TEST_P(FgnHurstTest, LagOneCorrelationHasTheRightSign) {
  const double hurst = GetParam();
  // Average over realizations so the check is statistical, not anecdotal.
  double acc = 0.0;
  const int trials = 16;
  const int64_t n = 1 << 12;
  for (int trial = 0; trial < trials; ++trial) {
    const auto fgn = FgnDaviesHarte(n, hurst, 40 + static_cast<uint64_t>(trial));
    for (int64_t t = 0; t + 1 < n; ++t) {
      acc += fgn[static_cast<size_t>(t)] * fgn[static_cast<size_t>(t + 1)];
    }
  }
  const double lag1 = acc / (static_cast<double>(n - 1) * trials);
  if (hurst < 0.5) {
    EXPECT_LT(lag1, 0.0) << "H=" << hurst;
  } else if (hurst > 0.5) {
    EXPECT_GT(lag1, 0.0) << "H=" << hurst;
  } else {
    EXPECT_NEAR(lag1, 0.0, 0.03);
  }
}

INSTANTIATE_TEST_SUITE_P(HurstRange, FgnHurstTest,
                         ::testing::Values(0.2, 0.35, 0.5, 0.65, 0.8, 0.95),
                         [](const ::testing::TestParamInfo<double>& i) {
                           return "H" + std::to_string(static_cast<int>(
                                            std::lround(i.param * 100)));
                         });

TEST(PermutationPropertyTest, PrefixSumsDifferButTotalsMatch) {
  const int64_t n = 4096;
  const auto base = SignMultiset(n, 0.6);
  const auto a = RandomlyPermuted(base, 1);
  const auto b = RandomlyPermuted(base, 2);
  double total_a = 0.0, total_b = 0.0;
  bool prefixes_differ = false;
  double prefix_a = 0.0, prefix_b = 0.0;
  for (int64_t t = 0; t < n; ++t) {
    prefix_a += a[static_cast<size_t>(t)];
    prefix_b += b[static_cast<size_t>(t)];
    if (t == n / 2 && prefix_a != prefix_b) prefixes_differ = true;
  }
  total_a = prefix_a;
  total_b = prefix_b;
  EXPECT_DOUBLE_EQ(total_a, total_b);  // the multiset fixes S_n
  EXPECT_TRUE(prefixes_differ);        // but not the path
}

}  // namespace
}  // namespace nmc::streams
