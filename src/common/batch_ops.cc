#include "common/batch_ops.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>

#include "common/batch_ops_kernels.h"
#include "common/simd_dispatch.h"

namespace nmc::common {

namespace detail = batch_ops_detail;

namespace {

// Exactness margin: |sum| stays below 2^51 throughout, far under the 2^53
// integer-exact range of a double, so any summation grouping of ±1 values
// is bit-identical to the sequential one.
constexpr double kExactLimit = 0x1.0p51;

bool IsSmallInteger(double x, double margin) {
  return x == std::floor(x) && std::fabs(x) + margin < kExactLimit;
}

// Run-level short-circuit test over an integer interval [min_sum, max_sum]
// known to contain every visited prefix sum. All inputs are exact integers
// below 2^51 and correctly-rounded ops are monotone, so with
//   a_max = max |fl(estimate - s)| over s in the interval — attained at an
//           endpoint because fl(estimate - s) is monotone in s,
//   b_min = min |s|, b_max = max |s| over the interval,
// (1) a_max <= fl(fl(epsilon * b_min) + slack) implies every item's error
//     is within its own (no smaller) threshold: zero violations;
// (2) b_max < rel_floor means no item reaches the relative floor, and
//     otherwise every item's fl(error / |s|) is at most
//     fl(a_max / max(b_min, rel_floor)), so when that bound is within
//     current_max_rel the caller's running max cannot move.
// Both tests are monotone in the interval: widening [min_sum, max_sum] can
// only turn a pass into a fail, never the reverse, so testing a superset
// interval is always sound.
bool ShortCircuitPasses(double min_sum, double max_sum, double estimate,
                        double epsilon, double slack, double rel_floor,
                        double current_max_rel) {
  const double a_max = std::max(std::fabs(estimate - min_sum),
                                std::fabs(estimate - max_sum));
  const double b_min = (min_sum <= 0.0 && max_sum >= 0.0)
                           ? 0.0
                           : std::min(std::fabs(min_sum), std::fabs(max_sum));
  const double b_max = std::max(std::fabs(min_sum), std::fabs(max_sum));
  return a_max <= epsilon * b_min + slack &&
         (b_max < rel_floor ||
          a_max / std::max(b_min, rel_floor) <= current_max_rel);
}

// Items per short-circuit test. The interval a ±1 walk can reach widens
// with its length, so one test over a long prefix fails far more often
// than tests over its blocks, each restarted from the block's exact
// running sum.
constexpr size_t kPrefixBlock = 64;

SignTally Tally(SimdLevel level, std::span<const double> values) {
  switch (level) {
#if NMC_SIMD_AVX2
    case SimdLevel::kAvx2:
      return detail::TallySignsAvx2(values.data(), values.size());
#endif
    default:
      return detail::TallySignsScalar(values.data(), values.size());
  }
}

// Per-item check of one ±1 block, continuing `state` (the scalar loop's
// running sum, max and violation count).
void CheckBlock(SimdLevel level, std::span<const double> block,
                double estimate, double epsilon, double slack,
                double rel_floor, detail::PrefixState* state) {
  const double* data = block.data();
  size_t n = block.size();
  switch (level) {
#if NMC_SIMD_AVX2
    case SimdLevel::kAvx2: {
      const size_t bulk = n & ~static_cast<size_t>(3);
      if (bulk != 0) {
        detail::CheckUnitPrefixAvx2(data, bulk, estimate, epsilon, slack,
                                    rel_floor, state);
      }
      data += bulk;
      n -= bulk;
      break;
    }
#endif
    default:
      break;
  }
  if (n != 0) {
    detail::CheckUnitPrefixScalar(data, n, estimate, epsilon, slack, rel_floor,
                                  state);
  }
}

}  // namespace

SignTally TallySigns(std::span<const double> values) {
  return Tally(ActiveSimdLevel(), values);
}

ExpandSelectorsFn ExpandSelectorsKernel() {
  switch (ActiveSimdLevel()) {
#if NMC_SIMD_AVX2
    case SimdLevel::kAvx2:
      return detail::ExpandSelectorsAvx2;
#endif
    default:
      return detail::ExpandSelectorsScalar;
  }
}

bool CheckUnitPrefix(std::span<const double> values, double sum0,
                     double estimate, double epsilon, double slack,
                     double rel_floor, double current_max_rel,
                     PrefixCheckResult* result) {
  if (!(rel_floor > 0.0)) return false;
  if (!(epsilon >= 0.0)) return false;
  if (!IsSmallInteger(sum0, static_cast<double>(values.size()))) return false;
  const SimdLevel level = ActiveSimdLevel();

  // Span-level short-circuit, tested before any data is read: a ±1 walk of
  // n steps keeps every prefix sum inside [s - n, s + n] around its start
  // s (both exact: the IsSmallInteger margin covers them), so the tests of
  // ShortCircuitPasses over that interval bound every item. The only
  // per-item work left is one sign tally: the all-unit gate plus the exact
  // final sum. In a settled tracker the estimate sits deep inside the
  // envelope and the ±n slop is negligible against |s|, so this is the
  // common case.
  const double total = static_cast<double>(values.size());
  if (ShortCircuitPasses(sum0 - total, sum0 + total, estimate, epsilon, slack,
                         rel_floor, current_max_rel)) {
    const SignTally tally = Tally(level, values);
    if (!tally.all_unit) return false;
    result->violations = 0;
    // Every item's relative error is provably <= current_max_rel, so 0.0
    // is exact under the documented max-fold contract.
    result->max_rel_error = 0.0;
    result->final_sum = sum0 + static_cast<double>(tally.plus - tally.minus);
    return true;
  }

  // The slop grows with the span, so a long span that fails may still
  // pass block by block. Each kPrefixBlock items are tallied once: the
  // tally gates the block (the per-item kernels need ±1 values) and, when
  // the test from the block's exact starting sum passes, advances the sum.
  // Only blocks that fail run the per-item kernels, which reproduce the
  // scalar loop bit for bit. State is written only once every block
  // passed the gate.
  detail::PrefixState state{sum0, 0.0, 0};
  for (size_t begin = 0; begin < values.size(); begin += kPrefixBlock) {
    const std::span<const double> block =
        values.subspan(begin, std::min(kPrefixBlock, values.size() - begin));
    const SignTally block_tally = Tally(level, block);
    if (!block_tally.all_unit) return false;
    const double n = static_cast<double>(block.size());
    if (ShortCircuitPasses(state.sum - n, state.sum + n, estimate, epsilon,
                           slack, rel_floor, current_max_rel)) {
      state.sum += static_cast<double>(block_tally.plus - block_tally.minus);
    } else {
      CheckBlock(level, block, estimate, epsilon, slack, rel_floor, &state);
    }
  }
  result->violations = state.violations;
  result->max_rel_error = state.max_rel_error;
  result->final_sum = state.sum;
  return true;
}

namespace batch_ops_detail {

SignTally TallySignsScalar(const double* values, size_t n) {
  SignTally tally;
  for (size_t i = 0; i < n; ++i) {
    if (values[i] == 1.0) {
      ++tally.plus;
    } else if (values[i] == -1.0) {
      ++tally.minus;
    } else {
      return tally;  // all_unit stays false
    }
  }
  tally.all_unit = true;
  return tally;
}

void ExpandSelectorsScalar(uint64_t a, uint64_t flip, uint64_t selectors,
                           int count, double* out) {
  const auto word = [&](uint64_t bit) {
    return a ^ (flip & (uint64_t{0} - bit));
  };
  int i = 0;
  for (; i + 1 < count; i += 2, selectors >>= 2) {
    const uint64_t two[2] = {word(selectors & 1u),
                             word((selectors >> 1) & 1u)};
    std::memcpy(out + i, two, sizeof two);
  }
  if (i < count) {
    const uint64_t last = word(selectors & 1u);
    std::memcpy(out + i, &last, sizeof last);
  }
}

void CheckUnitPrefixScalar(const double* values, size_t n, double estimate,
                           double epsilon, double slack, double rel_floor,
                           PrefixState* state) {
  double sum = state->sum;
  double max_rel = state->max_rel_error;
  int64_t violations = state->violations;
  for (size_t i = 0; i < n; ++i) {
    sum += values[i];
    const double abs_error = std::fabs(estimate - sum);
    const double abs_sum = std::fabs(sum);
    if (abs_error > epsilon * abs_sum + slack) ++violations;
    if (abs_sum >= rel_floor) {
      const double rel = abs_error / abs_sum;
      if (rel > max_rel) max_rel = rel;
    }
  }
  state->sum = sum;
  state->max_rel_error = max_rel;
  state->violations = violations;
}

}  // namespace batch_ops_detail

}  // namespace nmc::common
