// Tests for the batch_ops kernels (TallySigns / CheckUnitPrefix), with
// emphasis on the per-block short-circuit: whatever path CheckUnitPrefix
// takes, a caller folding max_rel_error with std::max must land on
// exactly the same state the scalar per-item loop produces.

#include "common/batch_ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
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

}  // namespace
}  // namespace nmc::common
