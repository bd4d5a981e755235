#include "common/geometric_skip.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/batch_rng.h"
#include "common/rng.h"

namespace nmc::common {
namespace {

/// Every seed in this file routes through a test-local factory whose
/// construction site takes the seed as a traceable parameter; a
/// statistical flake is then fixed by varying one literal at the call.
common::Rng MakeRng(uint64_t seed) { return common::Rng(seed); }

/// Draws one gap at `rate` and consumes it, as a site does between two
/// candidates.
int64_t DrawOne(GeometricSkip* skip, double rate) {
  skip->EnsureGap(rate);
  const int64_t gap = skip->gap();
  skip->Invalidate();
  return gap;
}

// ---- Distribution --------------------------------------------------------

// One-sample chi-square of the drawn gaps against the Geometric(p) pmf
// P[gap = g] = (1-p)^g * p. The rate is frozen, so after the first draw
// every gap comes from pre-drawn feed blocks. Fixed seed, so this is
// deterministic — the generous critical value guards against
// seed-hunting, not flakiness.
TEST(GeometricSkipTest, GapHistogramMatchesGeometricPmf) {
  const double p = 0.2;
  const int kDraws = 200000;
  const int kBins = 16;  // gaps 0..14 plus pooled tail
  BatchRng batch(2024);
  GeometricSkip skip(&batch);
  std::vector<int64_t> counts(kBins, 0);
  for (int i = 0; i < kDraws; ++i) {
    const int64_t gap = DrawOne(&skip, p);
    counts[static_cast<size_t>(std::min<int64_t>(gap, kBins - 1))] += 1;
  }
  double chi2 = 0.0;
  double tail_prob = 1.0;
  for (int b = 0; b < kBins; ++b) {
    const double prob =
        b < kBins - 1 ? tail_prob * p : tail_prob;  // last bin pools the tail
    tail_prob *= (1.0 - p);
    const double expected = prob * kDraws;
    ASSERT_GT(expected, 5.0);  // chi-square validity
    const double diff = static_cast<double>(counts[static_cast<size_t>(b)]) -
                        expected;
    chi2 += diff * diff / expected;
  }
  // df = 15; the 0.999 quantile is 37.7.
  EXPECT_LT(chi2, 37.7);
}

TEST(GeometricSkipTest, GapMeanMatchesGeometricMean) {
  const double p = 0.01;
  const int kDraws = 100000;
  BatchRng batch(7);
  GeometricSkip skip(&batch);
  double sum = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    sum += static_cast<double>(DrawOne(&skip, p));
  }
  const double mean = sum / kDraws;
  // E[gap] = (1-p)/p = 99; stderr ~ sqrt((1-p))/p/sqrt(N) ~ 0.31.
  EXPECT_NEAR(mean, (1.0 - p) / p, 2.0);
}

// ---- Boundary cases ------------------------------------------------------

TEST(GeometricSkipTest, CertainRateDrawsNoRandomness) {
  BatchRng batch(5);
  BatchRng untouched(5);
  GeometricSkip skip(&batch);
  EXPECT_EQ(DrawOne(&skip, 1.0), 0);
  EXPECT_EQ(DrawOne(&skip, 2.0), 0);
  EXPECT_EQ(batch.NextU64(), untouched.NextU64());  // no draw consumed
}

TEST(GeometricSkipTest, ZeroRateIsInfiniteWithoutRandomness) {
  BatchRng batch(5);
  BatchRng untouched(5);
  GeometricSkip skip(&batch);
  EXPECT_EQ(DrawOne(&skip, 0.0), GeometricSkip::kInfiniteGap);
  EXPECT_EQ(DrawOne(&skip, -1.0), GeometricSkip::kInfiniteGap);
  EXPECT_EQ(batch.NextU64(), untouched.NextU64());
}

TEST(GeometricSkipTest, TinyRateClampsInsteadOfOverflowing) {
  // log(u)/log1p(-p) for p = 1e-300 overflows any int64; the clamp must
  // return the sentinel instead of invoking UB on the cast.
  BatchRng batch(11);
  GeometricSkip skip(&batch);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(DrawOne(&skip, 1e-300), GeometricSkip::kInfiniteGap);
  }
  // A small-but-sane rate stays finite and non-negative.
  for (int i = 0; i < 1000; ++i) {
    const int64_t gap = DrawOne(&skip, 1e-6);
    EXPECT_GE(gap, 0);
    EXPECT_LT(gap, GeometricSkip::kInfiniteGap);
  }
}

// ---- State machine -------------------------------------------------------

TEST(GeometricSkipTest, AdvanceAndTakeCandidateWalkTheGap) {
  BatchRng batch(13);
  GeometricSkip skip(&batch);
  for (int run = 0; run < 100; ++run) {
    skip.EnsureGap(0.1);
    const int64_t gap = skip.gap();
    skip.EnsureGap(0.1);  // a cached gap is kept, not redrawn
    EXPECT_EQ(skip.gap(), gap);
    const int64_t half = gap / 2;
    skip.Advance(half);
    EXPECT_EQ(skip.gap(), gap - half);
    skip.Advance(gap - half);
    EXPECT_EQ(skip.gap(), 0);
    skip.TakeCandidate();
    EXPECT_FALSE(skip.valid());
  }
}

// ---- Gap-stream independence between sites -------------------------------

TEST(GeometricSkipTest, ForkedSiteFeedsAreIndependent) {
  // Protocol sites seed their feeds from forked RNGs. Two sites' gap
  // sequences must not be correlated copies of each other.
  common::Rng seeder = MakeRng(99);
  common::Rng site1 = seeder.Fork();
  common::Rng site2 = seeder.Fork();
  BatchRng batch1(site1.NextU64());
  BatchRng batch2(site2.NextU64());
  GeometricSkip skip1(&batch1);
  GeometricSkip skip2(&batch2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (DrawOne(&skip1, 0.1) == DrawOne(&skip2, 0.1)) ++equal;
  }
  // P[equal] = sum p_g^2 = p/(2-p) ~ 0.053 per index; 1000 trials.
  EXPECT_LT(equal, 150);
}

// ---- Feed schedule --------------------------------------------------------

TEST(GeometricSkipTest, FeedRateLadderCostsOneDrawPerFreshRate) {
  // A fresh rate must cost exactly one stream element (no speculative
  // block), and only the second consecutive same-rate request may buy a
  // block. Verified through the BatchRng stream position: a ladder of n
  // distinct rates consumes exactly n elements.
  BatchRng batch(7);
  BatchRng shadow(7);  // tracks the expected stream position
  GeometricSkip skip(&batch);
  const double rates[] = {0.5, 0.25, 0.125, 0.0625, 0.03125};
  for (const double rate : rates) {
    DrawOne(&skip, rate);
    (void)shadow.NextU64();  // one element per fresh rate
  }
  EXPECT_EQ(batch.NextU64(), shadow.NextU64());
}

TEST(GeometricSkipTest, FeedBlockRefillServesRepeatRateFromBlock) {
  // Once a rate repeats, blocks are pre-drawn on the growth schedule
  // (kFeedFirstBlockGaps, ×kFeedBlockGrowth per refill, capped at
  // kFeedBlockGaps) and every request in between is served without
  // further stream traffic. The shadow generator replays the same fills,
  // so matching stream positions prove both the schedule and the served
  // values' provenance.
  BatchRng batch(13);
  BatchRng shadow(13);
  GeometricSkip skip(&batch);
  const double rate = 0.1;
  DrawOne(&skip, rate);  // fresh rate: single draw
  (void)shadow.NextU64();
  int fill = GeometricSkip::kFeedFirstBlockGaps;
  int served = 0;
  std::vector<int64_t> block;
  // Run past the cap so the steady (fill == kFeedBlockGaps) regime is
  // exercised too.
  while (served < 3 * GeometricSkip::kFeedBlockGaps) {
    block.resize(static_cast<size_t>(fill));
    shadow.FillGeometricGaps(std::span<int64_t>(block), rate);
    for (int i = 0; i < fill; ++i) {
      // i == 0 buys the block
      EXPECT_EQ(DrawOne(&skip, rate), block[static_cast<size_t>(i)]);
    }
    served += fill;
    fill = std::min(fill * GeometricSkip::kFeedBlockGrowth,
                    GeometricSkip::kFeedBlockGaps);
  }
  EXPECT_EQ(batch.NextU64(), shadow.NextU64());
}

}  // namespace
}  // namespace nmc::common
