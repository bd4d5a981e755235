#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/batch_ops.h"
#include "common/check.h"
#include "sim/assignment.h"
#include "sim/protocol.h"

namespace nmc::sim {

/// Absolute slack added to the tracking checker's violation test to absorb
/// floating-point accumulation noise on fractional streams.
inline constexpr double kAbsoluteSlack = 1e-9;

/// Configuration of the tracking checker.
struct TrackingOptions {
  /// Relative accuracy the protocol promises; a step violates the guarantee
  /// when |estimate - S| > epsilon * |S| + kAbsoluteSlack (so at S == 0
  /// the estimate may differ from 0 only by float noise).
  double epsilon = 0.1;

  /// Steps with |S| below this floor are excluded from max_rel_error (the
  /// relative error is ill-conditioned around zero) but still checked for
  /// violations via the absolute criterion above.
  double rel_error_floor = 1.0;

  /// If > 0, record (t, cumulative messages, S, estimate) at this many
  /// roughly evenly spaced steps — the raw series behind "figures".
  int curve_points = 0;

  /// Stream items per pump chunk (>= 1), offered to one
  /// Protocol::ProcessChunk call at a time. Larger batches let protocols
  /// with a fast-forward path consume whole inter-report stretches per
  /// virtual call; 1 reproduces the per-update pump. Every field of
  /// TrackingResult is bit-identical across batch sizes (the
  /// ProcessChunk/ProcessBatch contract keeps the estimate constant over a
  /// call's silent prefix, and skip-sampler gap state persists across
  /// calls).
  int batch_size = 256;
};

/// One sampled point of the tracking trajectory.
struct CurvePoint {
  int64_t t = 0;
  int64_t messages = 0;
  double sum = 0.0;
  double estimate = 0.0;
};

/// Outcome of one tracked run.
struct TrackingResult {
  int64_t n = 0;
  int64_t messages = 0;
  int64_t broadcasts = 0;
  /// Steps at which the epsilon guarantee did not hold.
  int64_t violation_steps = 0;
  /// Max of |estimate - S| / |S| over steps with |S| >= rel_error_floor.
  double max_rel_error = 0.0;
  double final_sum = 0.0;
  double final_estimate = 0.0;
  std::vector<CurvePoint> curve;

  bool any_violation() const { return violation_steps > 0; }
};

/// Checks the tracking guarantee at one step: `sum` is the exact running
/// sum after the step and `estimate` the protocol's estimate at it. Counts
/// a violation into result->violation_steps and folds the step's relative
/// error into result->max_rel_error. The sim harness and the sockets
/// coordinator both judge every step with this one function (through
/// CheckCall).
inline void CheckStep(double estimate, double sum,
                      const TrackingOptions& options, TrackingResult* result) {
  const double abs_error = std::fabs(estimate - sum);
  const double abs_sum = std::fabs(sum);
  if (abs_error > options.epsilon * abs_sum + kAbsoluteSlack) {
    result->violation_steps += 1;
  }
  if (abs_sum >= options.rel_error_floor) {
    result->max_rel_error =
        std::max(result->max_rel_error, abs_error / abs_sum);
  }
}

/// Checks the updates `call` (non-empty) that one protocol call consumed,
/// in order, advancing *sum past them. By the ProcessBatch/ProcessChunk
/// contract the estimate stayed at `frozen` over all but the last update,
/// which is judged against `fresh`, the estimate after the call. The silent
/// prefix goes through common::CheckUnitPrefix when it applies (±1 values)
/// and is otherwise a CheckStep per update; either way the result is
/// bit-identical to a CheckStep per update. The sim pump and the sockets
/// coordinator check every call with this one function.
inline void CheckCall(std::span<const double> call, double frozen,
                      double fresh, const TrackingOptions& options,
                      double* sum, TrackingResult* result) {
  NMC_CHECK(!call.empty());
  const std::span<const double> silent = call.first(call.size() - 1);
  // The estimate is frozen over the silent prefix, so the per-item loop
  // degenerates to a prefix-sum scan against a constant — exactly
  // CheckUnitPrefix. The kernel only accepts ±1 runs with an integer
  // running sum (where its regrouped additions are bit-exact), and mirrors
  // the loop's violation / max-rel-error updates operation for operation,
  // so the result is bit-identical whether or not this path fires.
  common::PrefixCheckResult prefix;
  if (silent.size() >= 7 &&
      common::CheckUnitPrefix(silent, *sum, frozen, options.epsilon,
                              kAbsoluteSlack, options.rel_error_floor,
                              result->max_rel_error, &prefix)) {
    *sum = prefix.final_sum;
    result->violation_steps += prefix.violations;
    result->max_rel_error = std::max(result->max_rel_error,
                                     prefix.max_rel_error);
  } else {
    for (const double value : silent) {
      *sum += value;
      CheckStep(frozen, *sum, options, result);
    }
  }
  *sum += call.back();
  CheckStep(fresh, *sum, options, result);
}

/// Internal building block of runtime::RunWithTransport (runtime/run.h,
/// TransportKind::kSim), which is the public per-transport entry point;
/// sim-layer unit tests that exercise the checker itself may still call it
/// directly.
///
/// Drives `stream` through `protocol` and checks the coordinator's estimate
/// against the exact running sum after every update. The stream is taken
/// in chunks of up to options.batch_size items; psi->Assign turns each
/// chunk into same-site runs with one call, and Protocol::ProcessChunk
/// consumes those runs, one call per message-ending prefix. psi's sites
/// must lie in [0, protocol->num_sites()).
TrackingResult RunTracking(const std::vector<double>& stream,
                           AssignmentPolicy* psi, Protocol* protocol,
                           const TrackingOptions& options);

}  // namespace nmc::sim
