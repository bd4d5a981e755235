// Tests for the batch_ops kernels (TallySigns / CheckUnitPrefix), with
// emphasis on the per-block short-circuit: whatever path CheckUnitPrefix
// takes, a caller folding max_rel_error with std::max must land on
// exactly the same state the scalar per-item loop produces.

#include "common/batch_ops.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/batch_ops_kernels.h"
#include "common/rng.h"
#include "common/simd_dispatch.h"
#include "gtest/gtest.h"

namespace nmc::common {
namespace {

// The harness's per-item loop, verbatim: the oracle every CheckUnitPrefix
// path (short-circuit or per-item, scalar or SIMD) must reproduce under
// the max-fold contract.
struct RefState {
  double sum = 0.0;
  int64_t violations = 0;
  double max_rel = 0.0;
};

RefState ReferenceLoop(std::span<const double> values, double sum0,
                       double estimate, double epsilon, double slack,
                       double rel_floor, double current_max_rel) {
  RefState ref;
  ref.sum = sum0;
  ref.max_rel = current_max_rel;
  for (const double v : values) {
    ref.sum += v;
    const double abs_error = std::fabs(estimate - ref.sum);
    const double abs_sum = std::fabs(ref.sum);
    if (abs_error > epsilon * abs_sum + slack) ++ref.violations;
    if (abs_sum >= rel_floor) {
      const double rel = abs_error / abs_sum;
      if (rel > ref.max_rel) ref.max_rel = rel;
    }
  }
  return ref;
}

std::vector<double> UnitWalk(uint64_t seed, size_t n, double bias) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (auto& v : values) v = rng.UniformDouble() < bias ? 1.0 : -1.0;
  return values;
}

std::vector<uint64_t> RandomWords(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<uint64_t> words(n);
  for (auto& w : words) w = rng.NextU64();
  return words;
}

// Every SIMD level the build compiled and the CPU runs; the scalar level
// is always among them.
std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels;
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    if (SimdLevelAvailable(level)) levels.push_back(level);
  }
  return levels;
}

// Pins dispatch for one scope and restores auto-detection even when an
// assertion fails inside it.
struct ForcedLevel {
  explicit ForcedLevel(SimdLevel level) {
    EXPECT_TRUE(ForceSimdLevel(level)) << SimdLevelName(level);
  }
  ~ForcedLevel() { ResetSimdLevel(); }
};

// Values the ±1 gate must reject: zeros, NaN, infinities, the
// neighbours of ±1.0 and a denormal.
std::vector<double> NonUnitValues() {
  return {0.0,
          -0.0,
          std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::nextafter(1.0, 2.0),
          std::nextafter(1.0, 0.0),
          -std::nextafter(1.0, 2.0),
          std::numeric_limits<double>::denorm_min()};
}

TEST(BatchOpsTest, TallySignsMatchesScalarOracleAtEveryLevel) {
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 40; ++n) lengths.push_back(n);
  lengths.push_back(1000);
  for (const SimdLevel level : AvailableLevels()) {
    const ForcedLevel forced(level);
    for (const size_t n : lengths) {
      SCOPED_TRACE(::testing::Message()
                   << "level=" << SimdLevelName(level) << " n=" << n);
      const std::vector<double> values = UnitWalk(500 + n, n, 0.6);
      const SignTally want =
          batch_ops_detail::TallySignsScalar(values.data(), values.size());
      const SignTally got = TallySigns(values);
      ASSERT_TRUE(want.all_unit);
      ASSERT_TRUE(got.all_unit);
      EXPECT_EQ(got.plus, want.plus);
      EXPECT_EQ(got.minus, want.minus);
      // One bad value in every position, so every vector lane, the 8-wide
      // body, the 4-wide step and the masked tail each see each kind.
      for (size_t pos = 0; pos < n; pos += n == 1000 ? 37 : 1) {
        for (const double bad : NonUnitValues()) {
          std::vector<double> tainted = values;
          tainted[pos] = bad;
          ASSERT_FALSE(batch_ops_detail::TallySignsScalar(tainted.data(),
                                                          tainted.size())
                           .all_unit);
          ASSERT_FALSE(TallySigns(tainted).all_unit)
              << "pos=" << pos << " bits=" << std::bit_cast<uint64_t>(bad);
        }
      }
    }
  }
}

TEST(BatchOpsTest, ExpandSelectorsMatchesScalarOracleAtEveryLevel) {
  // Arbitrary bit patterns for a and b (a NaN payload and a negative
  // zero among them) and random selector words, with a sentinel past
  // count that no kernel may overwrite.
  const uint64_t sentinel = 0x7FF800000000BEEFull;
  const uint64_t patterns[][2] = {
      {std::bit_cast<uint64_t>(1.0), std::bit_cast<uint64_t>(-1.0)},
      {0x7FF8000000001234ull, std::bit_cast<uint64_t>(-0.0)},
      {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull}};
  for (const SimdLevel level : AvailableLevels()) {
    const ForcedLevel forced(level);
    const ExpandSelectorsFn expand = ExpandSelectorsKernel();
    const std::vector<uint64_t> words = RandomWords(71, 64 * 3);
    for (int count = 1; count <= 64; ++count) {
      for (size_t p = 0; p < 3; ++p) {
        const uint64_t a = patterns[p][0];
        const uint64_t flip = a ^ patterns[p][1];
        const uint64_t selectors =
            words[static_cast<size_t>(count - 1) * 3 + p];
        std::vector<double> want(72, std::bit_cast<double>(sentinel));
        std::vector<double> got = want;
        batch_ops_detail::ExpandSelectorsScalar(a, flip, selectors, count,
                                                want.data() + 3);
        expand(a, flip, selectors, count, got.data() + 3);
        for (size_t i = 0; i < got.size(); ++i) {
          const bool written =
              i >= 3 && i < 3 + static_cast<size_t>(count);
          ASSERT_EQ(std::bit_cast<uint64_t>(got[i]),
                    std::bit_cast<uint64_t>(want[i]))
              << SimdLevelName(level) << " count=" << count << " i=" << i;
          if (written) {
            const uint64_t bit = (selectors >> (i - 3)) & 1u;
            ASSERT_EQ(std::bit_cast<uint64_t>(got[i]), bit ? a ^ flip : a);
          } else {
            ASSERT_EQ(std::bit_cast<uint64_t>(got[i]), sentinel);
          }
        }
      }
    }
  }
}

TEST(BatchOpsTest, TallySignsCountsAndGates) {
  const auto values = UnitWalk(7, 133, 0.6);
  const SignTally tally = TallySigns(values);
  ASSERT_TRUE(tally.all_unit);
  int64_t plus = 0;
  for (double v : values) plus += v == 1.0 ? 1 : 0;
  EXPECT_EQ(tally.plus, plus);
  EXPECT_EQ(tally.minus, static_cast<int64_t>(values.size()) - plus);

  auto tainted = values;
  tainted[71] = 0.5;
  EXPECT_FALSE(TallySigns(tainted).all_unit);
}

TEST(BatchOpsTest, MatchesReferenceLoopAcrossPaths) {
  // Sweep sizes (SIMD bulk + scalar tail splits), biases (walks that do
  // and don't cross zero), estimates (tight and violating), and
  // current_max_rel (0 forces the per-item path; large values invite the
  // short-circuit). Every combination must agree with the scalar oracle
  // after the max-fold.
  for (const size_t n : {1u, 3u, 4u, 7u, 31u, 32u, 100u, 257u}) {
    for (const double bias : {0.5, 0.75, 1.0}) {
      for (const double sum0 : {0.0, 12.0, -40.0, 4096.0}) {
        const auto values = UnitWalk(1000 + n, n, bias);
        const double final_sum = [&] {
          double s = sum0;
          for (double v : values) s += v;
          return s;
        }();
        for (const double estimate :
             {sum0, final_sum, final_sum * 1.1 + 3.0, 0.0}) {
          for (const double current : {0.0, 0.2, 1e9}) {
            const double epsilon = 0.25;
            const double slack = 1e-9;
            const double rel_floor = 1.0;
            PrefixCheckResult prefix;
            ASSERT_TRUE(CheckUnitPrefix(values, sum0, estimate, epsilon,
                                        slack, rel_floor, current, &prefix));
            const RefState ref = ReferenceLoop(values, sum0, estimate,
                                               epsilon, slack, rel_floor,
                                               current);
            EXPECT_EQ(prefix.final_sum, ref.sum)
                << "n=" << n << " bias=" << bias << " est=" << estimate;
            EXPECT_EQ(prefix.violations, ref.violations)
                << "n=" << n << " bias=" << bias << " est=" << estimate;
            EXPECT_EQ(std::max(current, prefix.max_rel_error), ref.max_rel)
                << "n=" << n << " bias=" << bias << " est=" << estimate
                << " current=" << current;
          }
        }
      }
    }
  }
}

TEST(BatchOpsTest, RejectsNonUnitAndNonIntegerSeeds) {
  auto values = UnitWalk(3, 40, 0.5);
  PrefixCheckResult prefix;
  EXPECT_TRUE(CheckUnitPrefix(values, 0.0, 1.0, 0.25, 1e-9, 1.0, 0.0,
                              &prefix));
  values[17] = 0.25;  // fractional item
  EXPECT_FALSE(CheckUnitPrefix(values, 0.0, 1.0, 0.25, 1e-9, 1.0, 0.0,
                               &prefix));
  values[17] = 1.0;
  EXPECT_FALSE(CheckUnitPrefix(values, 0.5, 1.0, 0.25, 1e-9, 1.0, 0.0,
                               &prefix));  // non-integer seed sum
  EXPECT_FALSE(CheckUnitPrefix(values, 0.0, 1.0, 0.25, 1e-9, 0.0, 0.0,
                               &prefix));  // rel_floor must be positive
  EXPECT_FALSE(CheckUnitPrefix(values, 0x1.0p51, 1.0, 0.25, 1e-9, 1.0, 0.0,
                               &prefix));  // seed out of the exact range
}

TEST(BatchOpsTest, ShortCircuitFiresOnSettledTracking) {
  // A settled tracker: large sums, estimate within the envelope, and a
  // current max_rel from the early phase that dominates the run's. The
  // short-circuit must report zero violations and leave the fold alone.
  const auto values = UnitWalk(11, 64, 0.75);
  const double sum0 = 20000.0;
  double final_sum = sum0;
  for (double v : values) final_sum += v;
  const double estimate = final_sum + 5.0;  // well inside 0.25 * 20000
  const double current = 0.5;
  PrefixCheckResult prefix;
  ASSERT_TRUE(CheckUnitPrefix(values, sum0, estimate, 0.25, 1e-9, 1.0,
                              current, &prefix));
  EXPECT_EQ(prefix.violations, 0);
  EXPECT_EQ(prefix.final_sum, final_sum);
  const RefState ref =
      ReferenceLoop(values, sum0, estimate, 0.25, 1e-9, 1.0, current);
  EXPECT_EQ(std::max(current, prefix.max_rel_error), ref.max_rel);
}

TEST(BatchOpsTest, ShortCircuitRestartsEvery64Items) {
  // A 255-item prefix of a drifting walk, as when one call's silent
  // prefix spans many same-site runs. The interval a 255-step walk can
  // reach, [sum0 - 255, sum0 + 255], is too wide for the envelope at
  // epsilon = 0.1, but each 64-item block's interval, taken from the
  // block's exact starting sum, is not. So every block short-circuits:
  // the result adds no relative error and matches the scalar loop under
  // the max-fold.
  const auto values = UnitWalk(13, 255, 0.75);
  const double sum0 = 2000.0;
  double final_sum = sum0;
  for (double v : values) final_sum += v;
  const double estimate = sum0 + 0.5 * (final_sum - sum0);
  const double current = 0.5;
  const double n = static_cast<double>(values.size());
  ASSERT_GT(std::max(estimate - (sum0 - n), (sum0 + n) - estimate),
            0.1 * (sum0 - n))
      << "the whole-span interval must fail the envelope test";
  PrefixCheckResult prefix;
  ASSERT_TRUE(CheckUnitPrefix(values, sum0, estimate, 0.1, 1e-9, 1.0,
                              current, &prefix));
  EXPECT_EQ(prefix.violations, 0);
  EXPECT_EQ(prefix.max_rel_error, 0.0);
  EXPECT_EQ(prefix.final_sum, final_sum);
  const RefState ref =
      ReferenceLoop(values, sum0, estimate, 0.1, 1e-9, 1.0, current);
  EXPECT_EQ(ref.violations, 0);
  EXPECT_EQ(std::max(current, prefix.max_rel_error), ref.max_rel);
}

// CheckUnitPrefix against the per-item loop, bit for bit, on each of its
// three outcomes, at every SIMD level.
TEST(BatchOpsTest, CheckUnitPrefixPathsMatchPerItemLoopAtEveryLevel) {
  const double epsilon = 0.1;
  const double slack = 1e-9;
  const double current = 0.5;
  const auto check = [&](const std::vector<double>& values, double sum0,
                         double estimate) {
    PrefixCheckResult prefix;
    ASSERT_TRUE(CheckUnitPrefix(values, sum0, estimate, epsilon, slack, 1.0,
                                current, &prefix));
    const RefState ref =
        ReferenceLoop(values, sum0, estimate, epsilon, slack, 1.0, current);
    EXPECT_EQ(std::bit_cast<uint64_t>(prefix.final_sum),
              std::bit_cast<uint64_t>(ref.sum));
    EXPECT_EQ(prefix.violations, ref.violations);
    EXPECT_EQ(std::bit_cast<uint64_t>(std::max(current, prefix.max_rel_error)),
              std::bit_cast<uint64_t>(ref.max_rel));
  };
  for (const SimdLevel level : AvailableLevels()) {
    SCOPED_TRACE(SimdLevelName(level));
    const ForcedLevel forced(level);
    const std::vector<double> values = UnitWalk(17, 300, 0.75);
    const double n = static_cast<double>(values.size());

    // 1. The span test passes: [s - n, s + n] sits deep in the envelope.
    const double settled = 1e6;
    check(values, settled, settled + 10.0);

    // 2. The span test fails, yet a block passes: at s = 3000 the ±300
    // interval leaves the 0.1 envelope around an estimate of s + 250. The
    // first block's ±64 interval still leaves it and runs the per-item
    // kernels; the walk drifts up toward the estimate, so later blocks,
    // tested from their exact starting sums, pass.
    const double sum0 = 3000.0;
    const double estimate = sum0 + 250.0;
    ASSERT_GT(std::fabs(estimate - (sum0 - n)), epsilon * (sum0 - n));
    int passing_blocks = 0;
    int failing_blocks = 0;
    double block_start = sum0;
    for (size_t begin = 0; begin < values.size(); begin += 64) {
      const size_t end = std::min(values.size(), begin + 64);
      const double half = static_cast<double>(end - begin);
      const double lo = block_start - half;
      const double hi = block_start + half;
      // Both ends positive here, so the envelope test reduces to this.
      const double worst = std::max(std::fabs(estimate - lo),
                                    std::fabs(estimate - hi));
      (worst <= epsilon * lo + slack ? passing_blocks : failing_blocks) += 1;
      for (size_t i = begin; i < end; ++i) block_start += values[i];
    }
    ASSERT_GT(passing_blocks, 0);
    ASSERT_GT(failing_blocks, 0);
    check(values, sum0, estimate);
    const RefState ref =
        ReferenceLoop(values, sum0, estimate, epsilon, slack, 1.0, current);
    EXPECT_EQ(ref.violations, 0) << "every item sits inside the envelope";
    check(values, 300.0, 500.0);  // blocks fail too; violations counted
    EXPECT_GT(ReferenceLoop(values, 300.0, 500.0, epsilon, slack, 1.0,
                            current)
                  .violations,
              0);

    // 3. A non-unit value in a late block returns false and writes
    // nothing, whichever path reads that block.
    for (const double start : {settled, sum0, 300.0}) {
      std::vector<double> tainted = values;
      tainted[290] = 0.5;
      PrefixCheckResult untouched;
      untouched.violations = 123;
      untouched.max_rel_error = 4.5;
      untouched.final_sum = -6.0;
      EXPECT_FALSE(CheckUnitPrefix(tainted, start, start + 10.0, epsilon,
                                   slack, 1.0, current, &untouched));
      EXPECT_EQ(untouched.violations, 123);
      EXPECT_EQ(untouched.max_rel_error, 4.5);
      EXPECT_EQ(untouched.final_sum, -6.0);
    }
  }
}

}  // namespace
}  // namespace nmc::common
