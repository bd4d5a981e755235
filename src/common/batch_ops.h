#pragma once

#include <cstdint>
#include <span>

namespace nmc::common {

/// Tally of a ±1 span. `all_unit` is the gate: when false (some element is
/// not exactly +1.0 or -1.0) the counts are meaningless and callers must
/// take their scalar path.
struct SignTally {
  int64_t plus = 0;
  int64_t minus = 0;
  bool all_unit = false;
};

/// Counts exact +1.0 / -1.0 elements (SIMD-dispatched). The hot-path
/// enabler for ±1 streams: when all_unit holds and the consumer's
/// accumulators are small integers, sums over the span are exact in any
/// grouping, so bulk absorption is bit-identical to per-item absorption.
SignTally TallySigns(std::span<const double> values);

/// Expands a selector word into `count` (at most 64) doubles: out[i] has
/// the bit pattern a ^ (flip & −(bit i of selectors)), so it is the value
/// whose bits are `a` where the selector bit is clear and a ^ flip where it
/// is set. Writes nothing at or past out[count], so it may expand into the
/// middle of a larger buffer. Kernels of every SIMD level write the same
/// bits.
using ExpandSelectorsFn = void (*)(uint64_t a, uint64_t flip,
                                   uint64_t selectors, int count,
                                   double* out);

/// The ExpandSelectors kernel of the active SIMD level. Resolving it is an
/// out-of-line call, so a caller expanding many short words resolves it
/// once, outside its loop.
ExpandSelectorsFn ExpandSelectorsKernel();

/// Outcome of CheckUnitPrefix over a whole span.
struct PrefixCheckResult {
  int64_t violations = 0;      ///< items outside the (epsilon, slack) envelope
  double max_rel_error = 0.0;  ///< max error/|sum| over items with |sum| >= floor
  double final_sum = 0.0;      ///< running sum after the last item
};

/// Bulk twin of the tracking harness's per-item invariant check over a
/// run's silent prefix: for each item, sum += v, then
///   error = |estimate - sum|,  violation iff error > epsilon*|sum| + slack,
///   and error/|sum| feeds max_rel_error when |sum| >= rel_floor.
/// Returns false — touching nothing — unless the exactness precondition
/// holds: every value is exactly ±1.0, sum0 is an integer with
/// |sum0| + n < 2^51, and rel_floor > 0. Under that precondition every
/// intermediate sum is an exactly-representable integer, so the
/// vectorized evaluation is bit-identical to the sequential scalar loop
/// (and the scalar kernel is the dispatch oracle, as in BatchRng).
///
/// `current_max_rel` is the caller's running max-relative-error fold
/// value. It enables a short-circuit: a ±1 walk of n steps stays within n
/// of its starting sum s, and when that interval proves that no item
/// violates its envelope *and* no item's relative error can exceed
/// current_max_rel, the per-item kernels are skipped and the items add
/// nothing to the result. The test needs no data, so it is tried first
/// over the whole span, which is then tallied once. When it fails, each
/// 64-item block is tallied once (the tally is also its ±1 gate) and
/// tested from its exact starting sum, so only failing blocks run the
/// per-item kernels (a span that passes reports violations == 0 with
/// max_rel_error == 0.0). A non-±1 value in any block returns false with
/// nothing written, as the whole-span gate would. That report is
/// only exact for callers that fold the field with
/// std::max(current_max_rel, result.max_rel_error) — which is the
/// harness's (and the per-item loop's) semantics. Pass 0.0 to force the
/// exact per-item maximum.
bool CheckUnitPrefix(std::span<const double> values, double sum0,
                     double estimate, double epsilon, double slack,
                     double rel_floor, double current_max_rel,
                     PrefixCheckResult* result);

}  // namespace nmc::common
