#pragma once

#include <cstdint>
#include <vector>

#include "sim/assignment.h"
#include "sim/protocol.h"
#include "sim/stream_source.h"

namespace nmc::sim {

/// Configuration of the tracking checker.
struct TrackingOptions {
  /// Relative accuracy the protocol promises; a step violates the guarantee
  /// when |estimate - S| > epsilon * |S| (+ small float slack), or when
  /// S == 0 but the estimate is not.
  double epsilon = 0.1;

  /// Steps with |S| below this floor are excluded from max_rel_error (the
  /// relative error is ill-conditioned around zero) but still checked for
  /// violations via the absolute criterion above.
  double rel_error_floor = 1.0;

  /// Absolute slack added to the violation test to absorb floating-point
  /// accumulation noise on fractional streams.
  double absolute_slack = 1e-9;

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

/// Internal building block of runtime::RunWithTransport (runtime/run.h,
/// TransportKind::kSim), which is the public per-transport entry point;
/// sim-layer unit tests that exercise the checker itself may still call it
/// directly.
///
/// Drives `stream` through `protocol` and checks the coordinator's estimate
/// against the exact running sum after every update. The stream is taken
/// in chunks of up to options.batch_size items; psi->Assign places each
/// chunk with one call, and Protocol::ProcessChunk consumes the chunk with
/// its sites, one call per message-ending prefix. For a single-site
/// protocol psi is never called and every update goes to site 0 (every
/// policy maps to 0 when k == 1, and none observes protocol state): the
/// rest of the chunk goes to ProcessBatch, or to ProcessUpdate when one
/// item is left.
TrackingResult RunTracking(const std::vector<double>& stream,
                           AssignmentPolicy* psi, Protocol* protocol,
                           const TrackingOptions& options);

/// Same checker over a chunked source: pulls options.batch_size items at a
/// time into one reusable buffer, so tracking an n-item stream allocates
/// O(batch_size) instead of O(n). Produces the same TrackingResult as the
/// vector overload fed the materialized stream.
TrackingResult RunTracking(StreamSource* source, AssignmentPolicy* psi,
                           Protocol* protocol, const TrackingOptions& options);

}  // namespace nmc::sim
