#include "common/geometric_skip.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/batch_rng.h"
#include "common/rng.h"

namespace nmc::common {
namespace {

/// The first n log-tails of BatchRng(seed): element i of the stream the
/// sampler reads.
std::vector<double> ShadowTails(uint64_t seed, size_t n) {
  std::vector<double> tails(n);
  BatchRng(seed).FillLogTails(std::span<double>(tails));
  return tails;
}

/// The gap stream element `tail` gives at rate p.
int64_t GapAt(double tail, double p) {
  return GeometricSkip::GapFromLogTail(tail, 1.0 / std::log1p(-p));
}

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
// every gap comes from a reservation. Fixed seed, so this is
// deterministic — the generous critical value guards against
// seed-hunting, not flakiness.
TEST(GeometricSkipTest, GapHistogramMatchesGeometricPmf) {
  const double p = 0.2;
  const int kDraws = 200000;
  const int kBins = 16;  // gaps 0..14 plus pooled tail
  BatchRng batch(2024);
  InvLogQMemo memo;
  GeometricSkip skip(&batch, &memo);
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
  InvLogQMemo memo;
  GeometricSkip skip(&batch, &memo);
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
  InvLogQMemo memo;
  GeometricSkip skip(&batch, &memo);
  EXPECT_EQ(DrawOne(&skip, 1.0), 0);
  EXPECT_EQ(DrawOne(&skip, 2.0), 0);
  // No element consumed: the next real draw takes element 0.
  EXPECT_EQ(DrawOne(&skip, 0.1), GapAt(ShadowTails(5, 1)[0], 0.1));
}

TEST(GeometricSkipTest, ZeroRateIsInfiniteWithoutRandomness) {
  BatchRng batch(5);
  InvLogQMemo memo;
  GeometricSkip skip(&batch, &memo);
  EXPECT_EQ(DrawOne(&skip, 0.0), GeometricSkip::kInfiniteGap);
  EXPECT_EQ(DrawOne(&skip, -1.0), GeometricSkip::kInfiniteGap);
  EXPECT_EQ(DrawOne(&skip, 0.1), GapAt(ShadowTails(5, 1)[0], 0.1));
}

TEST(GeometricSkipTest, TinyRateClampsInsteadOfOverflowing) {
  // log(u)/log1p(-p) for p = 1e-300 overflows any int64; the clamp must
  // return the sentinel instead of invoking UB on the cast.
  BatchRng batch(11);
  InvLogQMemo memo;
  GeometricSkip skip(&batch, &memo);
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
  InvLogQMemo memo;
  GeometricSkip skip(&batch, &memo);
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
  common::Rng seeder(99);
  common::Rng site1 = seeder.Fork();
  common::Rng site2 = seeder.Fork();
  BatchRng batch1(site1.NextU64());
  BatchRng batch2(site2.NextU64());
  InvLogQMemo memo;  // shared, as a protocol's sites share it
  GeometricSkip skip1(&batch1, &memo);
  GeometricSkip skip2(&batch2, &memo);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (DrawOne(&skip1, 0.1) == DrawOne(&skip2, 0.1)) ++equal;
  }
  // P[equal] = sum p_g^2 = p/(2-p) ~ 0.053 per index; 1000 trials.
  EXPECT_LT(equal, 150);
}

// ---- Stream elements to gaps ---------------------------------------------

TEST(GeometricSkipTest, FreshRatesTakeOneElementEach) {
  // A fresh rate takes exactly the next stream element (no speculative
  // reservation): a ladder of distinct rates maps onto elements 0, 1, ...
  const double rates[] = {0.5, 0.25, 0.125, 0.0625, 0.03125};
  const std::vector<double> tails = ShadowTails(7, std::size(rates));
  BatchRng batch(7);
  InvLogQMemo memo;
  GeometricSkip skip(&batch, &memo);
  for (size_t i = 0; i < std::size(rates); ++i) {
    EXPECT_EQ(DrawOne(&skip, rates[i]), GapAt(tails[i], rates[i])) << i;
  }
}

TEST(GeometricSkipTest, RepeatRateReservesOnTheGrowthSchedule) {
  // Once a rate repeats it reserves elements in runs of kFirstReserve,
  // growing by kReserveGrowth up to kTailBlock, and serves them in order;
  // a fresh rate then skips the unserved rest of the current run. The
  // shadow replays that mapping element by element, through several tail
  // block refills.
  const double rate = 0.1;
  const std::vector<double> tails = ShadowTails(13, 4096);
  BatchRng batch(13);
  InvLogQMemo memo;
  GeometricSkip skip(&batch, &memo);
  size_t next = 0;
  EXPECT_EQ(DrawOne(&skip, rate), GapAt(tails[next++], rate));  // fresh
  int run = GeometricSkip::kFirstReserve;
  // Run past the cap so the steady (run == kTailBlock) regime is
  // exercised too.
  for (int served = 0; served < 3 * GeometricSkip::kTailBlock;) {
    for (int i = 0; i < run; ++i) {
      ASSERT_EQ(DrawOne(&skip, rate), GapAt(tails[next++], rate))
          << "served " << served + i;
    }
    served += run;
    run = std::min(run * GeometricSkip::kReserveGrowth,
                   GeometricSkip::kTailBlock);
  }
  // Serve 5 of the next 256-element run, then change rate: the other 251
  // are skipped, and the fresh rate takes the element after them.
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(DrawOne(&skip, rate), GapAt(tails[next++], rate));
  }
  next += static_cast<size_t>(GeometricSkip::kTailBlock - 5);
  EXPECT_EQ(DrawOne(&skip, 0.3), GapAt(tails[next++], 0.3));
  // The schedule restarts at the new rate.
  for (int i = 0; i < GeometricSkip::kFirstReserve + 1; ++i) {
    ASSERT_EQ(DrawOne(&skip, 0.3), GapAt(tails[next++], 0.3)) << i;
  }
}

TEST(GeometricSkipTest, DegenerateRateKeepsTheReservation) {
  // A degenerate rate consumes nothing and leaves the current run intact:
  // the repeat rate resumes where it stopped.
  const std::vector<double> tails = ShadowTails(21, 16);
  BatchRng batch(21);
  InvLogQMemo memo;
  GeometricSkip skip(&batch, &memo);
  EXPECT_EQ(DrawOne(&skip, 0.2), GapAt(tails[0], 0.2));
  EXPECT_EQ(DrawOne(&skip, 0.2), GapAt(tails[1], 0.2));  // opens a run of 8
  EXPECT_EQ(DrawOne(&skip, 1.0), 0);
  EXPECT_EQ(DrawOne(&skip, 0.0), GeometricSkip::kInfiniteGap);
  EXPECT_EQ(DrawOne(&skip, 0.2), GapAt(tails[2], 0.2));
  // The run covers elements 1..8; a fresh rate skips its 6 unserved
  // elements (3..8) and takes element 9.
  EXPECT_EQ(DrawOne(&skip, 0.4), GapAt(tails[9], 0.4));
}

TEST(GeometricSkipTest, GapSequenceIsPinned) {
  // A ladder of fresh, repeated and degenerate rates, long enough to cross
  // tail-block refills mid-reservation. The FNV-1a hash over the gaps (and
  // the leading gaps) were recorded when gaps were still drawn by a
  // per-rate bulk gap fill; the log-tail feed must reproduce that element
  // to gap mapping exactly, at every SIMD level.
  std::vector<double> ladder;
  const auto repeat = [&](double rate, int count) {
    ladder.insert(ladder.end(), static_cast<size_t>(count), rate);
  };
  repeat(0.3, 13);
  repeat(1.0, 1);
  repeat(0.3, 3);
  repeat(0.0, 2);
  repeat(0.3, 1);
  repeat(0.05, 46);
  repeat(0.7, 1);
  repeat(1e-300, 2);
  repeat(0.7, 5);
  repeat(0.2, 700);
  repeat(-1.0, 1);
  repeat(0.2, 10);
  repeat(0.01, 1);
  repeat(0.02, 1);
  repeat(0.01, 1);
  repeat(0.4, 300);
  BatchRng batch(2012);
  InvLogQMemo memo;
  GeometricSkip skip(&batch, &memo);
  std::vector<int64_t> gaps;
  uint64_t hash = 1469598103934665603ULL;
  for (const double rate : ladder) {
    const int64_t gap = DrawOne(&skip, rate);
    gaps.push_back(gap);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (static_cast<uint64_t>(gap) >> (8 * byte)) & 0xffU;
      hash *= 1099511628211ULL;
    }
  }
  const int64_t inf = GeometricSkip::kInfiniteGap;
  const std::vector<int64_t> leading = {2, 2, 2, 2, 1,   2,   0, 0,
                                        1, 5, 4, 5, 0,   0,   0, 3,
                                        0, inf, inf, 4, 23, 1, 10, 22};
  EXPECT_EQ(std::vector<int64_t>(gaps.begin(), gaps.begin() + 24), leading);
  EXPECT_EQ(gaps.size(), 1088u);
  EXPECT_EQ(hash, 0x474853ea22859045ULL);
}

}  // namespace
}  // namespace nmc::common
