// BatchRng contract tests: the lane decomposition onto scalar common::Rng
// streams, bit-identity of every available SIMD dispatch level against the
// scalar oracle, slicing invariance of the logical stream, distributional
// sanity (chi-square) of the bulk uniform/sign fills and of the gaps the
// log-tail fill yields, and child-stream independence.

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/batch_rng.h"
#include "common/batch_rng_kernels.h"
#include "common/geometric_skip.h"
#include "common/rng.h"
#include "common/simd_dispatch.h"

namespace nmc {
namespace {

using common::BatchRng;
using common::kBatchRngLanes;
using common::SimdLevel;

std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels;
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    if (common::SimdLevelAvailable(level)) levels.push_back(level);
  }
  return levels;
}

/// Restores auto-detection even when an assertion fails mid-test.
struct ForcedLevel {
  explicit ForcedLevel(SimdLevel level) {
    EXPECT_TRUE(common::ForceSimdLevel(level))
        << "level " << common::SimdLevelName(level) << " unavailable";
  }
  ~ForcedLevel() { common::ResetSimdLevel(); }
};

TEST(BatchRngTest, LaneDecomposition) {
  // The logical stream is the round-robin interleave of four scalar Rng
  // streams seeded with LaneSeed(seed, lane) — checked against common::Rng
  // itself, which pins the whole generator to the scalar implementation.
  const uint64_t seed = 12345;
  BatchRng batch(seed);
  std::vector<uint64_t> got(kBatchRngLanes * 64);
  batch.FillU64(std::span<uint64_t>(got));
  for (int lane = 0; lane < kBatchRngLanes; ++lane) {
    common::Rng rng(BatchRng::LaneSeed(seed, lane));
    for (size_t i = static_cast<size_t>(lane); i < got.size();
         i += kBatchRngLanes) {
      ASSERT_EQ(got[i], rng.NextU64()) << "lane " << lane << " element " << i;
    }
  }
}

TEST(BatchRngTest, NextU64MatchesFill) {
  BatchRng a(9);
  BatchRng b(9);
  std::vector<uint64_t> bulk(37);
  a.FillU64(std::span<uint64_t>(bulk));
  for (const uint64_t expected : bulk) {
    EXPECT_EQ(b.NextU64(), expected);
  }
}

TEST(BatchRngTest, EveryLevelBitIdenticalToScalar) {
  // The scalar kernel is the oracle; every compiled-and-runnable vector
  // level must reproduce it bit for bit on every fill type, including
  // ragged lengths that exercise the carry buffer and vector tails.
  const size_t kLen = 981;  // deliberately not a multiple of 4
  std::vector<uint64_t> u64_want(kLen);
  std::vector<double> uni_want(kLen), sign_want(kLen), tail_want(kLen);
  {
    ForcedLevel forced(SimdLevel::kScalar);
    BatchRng rng(77);
    rng.FillU64(std::span<uint64_t>(u64_want));
    rng.FillUniform(std::span<double>(uni_want));
    rng.FillSigns(std::span<double>(sign_want), 0.3);
    rng.FillLogTails(std::span<double>(tail_want));
  }
  for (const SimdLevel level : AvailableLevels()) {
    SCOPED_TRACE(common::SimdLevelName(level));
    ForcedLevel forced(level);
    std::vector<uint64_t> u64_got(kLen);
    std::vector<double> uni_got(kLen), sign_got(kLen), tail_got(kLen);
    BatchRng rng(77);
    rng.FillU64(std::span<uint64_t>(u64_got));
    rng.FillUniform(std::span<double>(uni_got));
    rng.FillSigns(std::span<double>(sign_got), 0.3);
    rng.FillLogTails(std::span<double>(tail_got));
    EXPECT_EQ(u64_got, u64_want);
    for (size_t i = 0; i < kLen; ++i) {
      ASSERT_EQ(uni_got[i], uni_want[i]) << i;   // bitwise, not approximate
      ASSERT_EQ(sign_got[i], sign_want[i]) << i;
      ASSERT_EQ(std::bit_cast<uint64_t>(tail_got[i]),
                std::bit_cast<uint64_t>(tail_want[i]))
          << i;
    }
  }
}

TEST(BatchRngTest, LogTailsArePolyLogOfTheRawStream) {
  // Element i of FillLogTails is PolyLog(TailFromU64(x_i)) for the i-th raw
  // stream element x_i, bit for bit, on every dispatch level — ragged
  // slices included, so the carry path and the vector kernels both count.
  const size_t kLen = 1031;
  std::vector<uint64_t> raw(kLen);
  BatchRng(4242).FillU64(std::span<uint64_t>(raw));
  const size_t kChunks[] = {3, 1, 8, 5, 256, 2};
  for (const SimdLevel level : AvailableLevels()) {
    SCOPED_TRACE(common::SimdLevelName(level));
    ForcedLevel forced(level);
    BatchRng rng(4242);
    std::vector<double> tails(kLen);
    size_t pos = 0, chunk_index = 0;
    while (pos < kLen) {
      const size_t len =
          std::min(kChunks[chunk_index++ % std::size(kChunks)], kLen - pos);
      rng.FillLogTails(std::span<double>(tails).subspan(pos, len));
      pos += len;
    }
    for (size_t i = 0; i < kLen; ++i) {
      const double want = common::batch_rng_detail::PolyLog(
          common::batch_rng_detail::TailFromU64(raw[i]));
      ASSERT_EQ(std::bit_cast<uint64_t>(tails[i]),
                std::bit_cast<uint64_t>(want))
          << i;
      ASSERT_LE(tails[i], 0.0) << i;
    }
  }
}

TEST(BatchRngTest, SlicingInvariance) {
  // Filling in arbitrary chunk sizes consumes the same logical stream as
  // one bulk fill — on every dispatch level.
  const size_t kTotal = 2048;
  std::vector<double> want(kTotal);
  {
    ForcedLevel forced(SimdLevel::kScalar);
    BatchRng rng(31);
    rng.FillUniform(std::span<double>(want));
  }
  const size_t kChunks[] = {1, 2, 3, 4, 5, 7, 981};
  for (const SimdLevel level : AvailableLevels()) {
    SCOPED_TRACE(common::SimdLevelName(level));
    ForcedLevel forced(level);
    BatchRng rng(31);
    std::vector<double> got(kTotal);
    size_t pos = 0, chunk_index = 0;
    while (pos < kTotal) {
      const size_t len =
          std::min(kChunks[chunk_index++ % std::size(kChunks)], kTotal - pos);
      rng.FillUniform(std::span<double>(got).subspan(pos, len));
      pos += len;
    }
    for (size_t i = 0; i < kTotal; ++i) {
      ASSERT_EQ(got[i], want[i]) << "element " << i;
    }
  }
}

TEST(BatchRngTest, UniformChiSquareAndRange) {
  const size_t kN = 1 << 16;
  const int kBuckets = 64;
  BatchRng rng(2024);
  std::vector<double> u(kN);
  rng.FillUniform(std::span<double>(u));
  std::vector<int64_t> counts(kBuckets, 0);
  for (const double x : u) {
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    counts[static_cast<size_t>(x * kBuckets)] += 1;
  }
  const double expected = static_cast<double>(kN) / kBuckets;
  double chi2 = 0.0;
  for (const int64_t c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  // 63 degrees of freedom: mean 63, std ~11.2; 120 is ~5 sigma.
  EXPECT_LT(chi2, 120.0) << "uniform fill badly non-uniform";
}

TEST(BatchRngTest, SignsMatchBernoulliProbability) {
  const size_t kN = 1 << 16;
  const double p_plus = 0.3;
  BatchRng rng(55);
  std::vector<double> s(kN);
  rng.FillSigns(std::span<double>(s), p_plus);
  int64_t plus = 0;
  for (const double x : s) {
    ASSERT_TRUE(x == 1.0 || x == -1.0);
    if (x == 1.0) ++plus;
  }
  // Binomial(kN, 0.3): std ~ sqrt(kN * .3 * .7) ~ 117; allow ~5 sigma.
  const double got_p = static_cast<double>(plus) / kN;
  EXPECT_NEAR(got_p, p_plus, 5.0 * std::sqrt(p_plus * (1 - p_plus) / kN));
}

TEST(BatchRngTest, LogTailGapsChiSquare) {
  // A tail scaled by 1/log1p(-p) and floored is a Geometric(p) gap, with
  // P[g] = p (1-p)^g. Chi-square over the first few cells plus a tail
  // cell, and a mean check (E[g] = (1-p)/p).
  const size_t kN = 1 << 16;
  const double p = 1.0 / 16.0;
  BatchRng rng(808);
  std::vector<double> tails(kN);
  rng.FillLogTails(std::span<double>(tails));
  const double inv_log_q = 1.0 / std::log1p(-p);
  const int kCells = 32;
  std::vector<int64_t> counts(kCells + 1, 0);
  double sum = 0.0;
  for (const double tail : tails) {
    const int64_t g = common::GeometricSkip::GapFromLogTail(tail, inv_log_q);
    ASSERT_GE(g, 0);
    counts[static_cast<size_t>(std::min<int64_t>(g, kCells))] += 1;
    sum += static_cast<double>(g);
  }
  double chi2 = 0.0;
  double tail_p = 1.0;
  for (int c = 0; c < kCells; ++c) {
    const double cell_p = p * std::pow(1.0 - p, c);
    tail_p -= cell_p;
    const double expected = cell_p * static_cast<double>(kN);
    const double d = static_cast<double>(counts[static_cast<size_t>(c)]) -
                     expected;
    chi2 += d * d / expected;
  }
  const double tail_expected = tail_p * static_cast<double>(kN);
  const double tail_d =
      static_cast<double>(counts[kCells]) - tail_expected;
  chi2 += tail_d * tail_d / tail_expected;
  // 32 degrees of freedom: mean 32, std 8; 75 is ~5 sigma.
  EXPECT_LT(chi2, 75.0) << "geometric gaps badly non-geometric";
  const double mean = sum / static_cast<double>(kN);
  const double want_mean = (1.0 - p) / p;  // 15
  EXPECT_NEAR(mean, want_mean, 0.5);
}

TEST(BatchRngTest, ChildStreamsAreIndependent) {
  // A child must neither replay the parent stream nor correlate with it.
  BatchRng parent(99);
  BatchRng child = parent.Child();
  const size_t kN = 1 << 14;
  std::vector<double> pu(kN), cu(kN);
  parent.FillUniform(std::span<double>(pu));
  child.FillUniform(std::span<double>(cu));
  double corr = 0.0;
  int64_t equal = 0;
  for (size_t i = 0; i < kN; ++i) {
    corr += (pu[i] - 0.5) * (cu[i] - 0.5);
    if (pu[i] == cu[i]) ++equal;
  }
  corr /= static_cast<double>(kN) / 12.0;  // normalize by Var[U(0,1)]
  EXPECT_EQ(equal, 0) << "child replays parent elements";
  // Correlation of kN iid pairs: std ~ 1/sqrt(kN) ~ 0.008; allow 5 sigma.
  EXPECT_LT(std::abs(corr), 0.04);
  // Distinct seeds give distinct children.
  BatchRng other(100);
  EXPECT_NE(other.Child().NextU64(), BatchRng(99).Child().NextU64());
}

TEST(BatchRngTest, ActiveLevelIsAvailable) {
  EXPECT_TRUE(common::SimdLevelAvailable(common::ActiveSimdLevel()));
  EXPECT_TRUE(common::SimdLevelAvailable(SimdLevel::kScalar));
}

}  // namespace
}  // namespace nmc
