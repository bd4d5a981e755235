#include "sim/harness.h"

#include <algorithm>

#include "common/batch_ops.h"
#include "common/check.h"

namespace nmc::sim {

namespace {

/// Loop state threaded through PumpChunk so the two RunTracking overloads
/// share one hot loop.
struct PumpState {
  TrackingResult result;
  double sum = 0.0;
  int64_t t = 0;               // items consumed so far
  int64_t curve_stride = 0;    // 0 = no curve
  double estimate = 0.0;       // protocol estimate after the last update
  std::vector<int> sites;      // psi's assignments for the current chunk
};

/// True when step `done` (1-based) gets a curve point: every stride-th
/// step and the run's final step. Only meaningful when a curve is recorded.
bool CurvePointDue(int64_t done, const PumpState& state) {
  return done % state.curve_stride == 0 || done == state.result.n;
}

/// Pumps one contiguous chunk of the stream. Each protocol call consumes a
/// prefix of what is left of the chunk and stops right after its first
/// communicating update; the ProcessChunk/ProcessBatch contract freezes
/// the estimate over the silent part, so the tracking invariant there is
/// checked against the cached estimate and the virtual Estimate() call is
/// paid once per protocol call, not once per item.
/// `num_sites` is protocol->num_sites(), hoisted by the callers: the
/// virtual call is loop-invariant but the compiler cannot prove it, and
/// PumpChunk runs once per batch.
///
/// psi places the whole chunk with one Assign call into state->sites, and
/// Protocol::ProcessChunk takes the rest of the chunk with its sites.
/// With one site every policy maps to 0 and none observes protocol state,
/// so psi is not asked and the rest of the chunk is one ProcessBatch run
/// (ProcessUpdate when a single item is left).
void PumpChunk(std::span<const double> chunk, AssignmentPolicy* psi,
               Protocol* protocol, int num_sites,
               const TrackingOptions& options, PumpState* state) {
  const size_t len = chunk.size();
  const bool record_curve = state->curve_stride > 0;

  const std::span<int> sites = std::span<int>(state->sites).first(len);
  if (num_sites > 1) psi->Assign(state->t, chunk, sites);

  size_t pos = 0;
  while (pos < len) {
    const std::span<const double> rest = chunk.subspan(pos);
    // Messages before the call: a curve point landing in the call's silent
    // prefix must not count the message its final update sends (the
    // per-update pump would not have sent it yet at that step). Probed
    // only when a curve is recorded — it is the sole consumer, and the
    // stats() call is not free for protocols that aggregate.
    const int64_t messages_before =
        record_curve ? protocol->stats().total() : 0;
    int64_t consumed = 1;
    if (num_sites > 1) {
      consumed = protocol->ProcessChunk(sites.subspan(pos), rest);
    } else if (rest.size() == 1) {
      protocol->ProcessUpdate(0, rest[0]);
    } else {
      consumed = protocol->ProcessBatch(0, rest);
    }
    NMC_CHECK_GE(consumed, 1);
    NMC_CHECK_LE(consumed, static_cast<int64_t>(rest.size()));
    const size_t silent = static_cast<size_t>(consumed - 1);

    // Vectorized invariant check over the silent prefix: the estimate is
    // frozen there, so the per-item loop below degenerates to a prefix-sum
    // scan against a constant — exactly CheckUnitPrefix. The kernel only
    // accepts ±1 runs with an integer running sum (where its regrouped
    // additions are bit-exact), and mirrors the loop's violation /
    // max-rel-error updates operation for operation, so TrackingResult is
    // bit-identical whether or not this path fires.
    common::PrefixCheckResult prefix;
    if (!record_curve && silent >= 7 &&
        common::CheckUnitPrefix(rest.first(silent), state->sum,
                                state->estimate, options.epsilon,
                                options.absolute_slack,
                                options.rel_error_floor,
                                state->result.max_rel_error, &prefix)) {
      state->sum = prefix.final_sum;
      state->result.violation_steps += prefix.violations;
      state->result.max_rel_error =
          std::max(state->result.max_rel_error, prefix.max_rel_error);
    } else {
      for (size_t j = 0; j < silent; ++j) {
        state->sum += rest[j];
        CheckStep(state->estimate, state->sum, options, &state->result);
        const int64_t done = state->t + static_cast<int64_t>(pos + j) + 1;
        if (record_curve && CurvePointDue(done, *state)) {
          state->result.curve.push_back(
              CurvePoint{done, messages_before, state->sum, state->estimate});
        }
      }
    }

    // The call's final update is the one that may have messaged: refresh
    // the estimate and check it the scalar way.
    state->sum += rest[silent];
    state->estimate = protocol->Estimate();
    CheckStep(state->estimate, state->sum, options, &state->result);
    pos += static_cast<size_t>(consumed);
    const int64_t done = state->t + static_cast<int64_t>(pos);
    if (record_curve && CurvePointDue(done, *state)) {
      state->result.curve.push_back(CurvePoint{
          done, protocol->stats().total(), state->sum, state->estimate});
    }
  }
  state->t += static_cast<int64_t>(len);
}

PumpState InitPumpState(int64_t n, Protocol* protocol,
                        const TrackingOptions& options) {
  NMC_CHECK(protocol != nullptr);
  NMC_CHECK_GT(options.epsilon, 0.0);
  NMC_CHECK_GE(options.batch_size, 1);

  PumpState state;
  state.result.n = n;
  state.sites.resize(static_cast<size_t>(options.batch_size));
  state.estimate = protocol->Estimate();
  state.curve_stride =
      options.curve_points > 0 ? std::max<int64_t>(1, n / options.curve_points)
                               : 0;
  if (state.curve_stride > 0) {
    // One point per stride plus the forced final point; +2 absorbs the
    // rounding so the push_back loop below never reallocates.
    state.result.curve.reserve(
        static_cast<size_t>(n / state.curve_stride + 2));
  }
  return state;
}

TrackingResult FinishPump(Protocol* protocol, PumpState* state) {
  NMC_CHECK_EQ(state->t, state->result.n);
  state->result.messages = protocol->stats().total();
  state->result.broadcasts = protocol->stats().broadcasts;
  state->result.final_sum = state->sum;
  state->result.final_estimate = protocol->Estimate();
  return std::move(state->result);
}

}  // namespace

TrackingResult RunTracking(const std::vector<double>& stream,
                           AssignmentPolicy* psi, Protocol* protocol,
                           const TrackingOptions& options) {
  NMC_CHECK(psi != nullptr);
  PumpState state =
      InitPumpState(static_cast<int64_t>(stream.size()), protocol, options);
  const std::span<const double> all(stream);
  const size_t batch = static_cast<size_t>(options.batch_size);
  const int num_sites = protocol->num_sites();
  for (size_t offset = 0; offset < all.size(); offset += batch) {
    PumpChunk(all.subspan(offset, std::min(batch, all.size() - offset)), psi,
              protocol, num_sites, options, &state);
  }
  return FinishPump(protocol, &state);
}

TrackingResult RunTracking(StreamSource* source, AssignmentPolicy* psi,
                           Protocol* protocol, const TrackingOptions& options) {
  NMC_CHECK(source != nullptr);
  NMC_CHECK(psi != nullptr);
  PumpState state = InitPumpState(source->length(), protocol, options);
  std::vector<double> buffer(static_cast<size_t>(options.batch_size));
  const int num_sites = protocol->num_sites();
  int64_t filled;
  while ((filled = source->FillChunk(buffer)) > 0) {
    PumpChunk(std::span<const double>(buffer.data(),
                                      static_cast<size_t>(filled)),
              psi, protocol, num_sites, options, &state);
  }
  return FinishPump(protocol, &state);
}

}  // namespace nmc::sim
