#include "sim/harness.h"

#include <algorithm>
#include <cmath>

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

/// Pumps one contiguous chunk of the stream. Same-site runs go through
/// Protocol::ProcessBatch; the tracking invariant for a run's silent
/// prefix is checked against the cached estimate (the ProcessBatch
/// contract guarantees it cannot have changed), so the virtual Estimate()
/// call is paid once per run, not once per item.
/// `num_sites` is protocol->num_sites(), hoisted by the callers: the
/// virtual call is loop-invariant but the compiler cannot prove it, and
/// PumpChunk runs once per batch.
///
/// psi places the whole chunk with one Assign call into state->sites; runs
/// are the maximal same-site stretches of that buffer. With one site every
/// policy maps to 0 and none observes protocol state, so psi is not asked
/// and the whole chunk is one run.
void PumpChunk(std::span<const double> chunk, AssignmentPolicy* psi,
               Protocol* protocol, int num_sites,
               const TrackingOptions& options, PumpState* state) {
  const int64_t len = static_cast<int64_t>(chunk.size());
  const bool record_curve = state->curve_stride > 0;

  const std::span<int> sites =
      std::span<int>(state->sites).first(chunk.size());
  if (num_sites > 1) psi->Assign(state->t, chunk, sites);

  // The site that ends a run's scan is carried over as the next run's
  // site. Every update of a run went to `site`, so one range check per run
  // covers every assignment.
  int64_t i = 0;
  int site = num_sites > 1 ? sites[0] : 0;
  while (i < len) {
    int64_t run = len - i;
    int next_site = site;
    if (num_sites > 1) {
      NMC_CHECK_GE(site, 0);
      NMC_CHECK_LT(site, num_sites);
      run = 1;
      while (i + run < len) {
        next_site = sites[static_cast<size_t>(i + run)];
        if (next_site != site) break;
        ++run;
      }
    }

    if (run == 1) {
      // Single-update run (k > 1 under an alternating assignment): the
      // batch wrapper buys nothing here, and its bookkeeping is
      // comparable to a cheap protocol's own per-update cost — call the
      // per-update entry point directly. Semantically identical to
      // ProcessBatch on a one-element span by the Protocol contract.
      const double value = chunk[static_cast<size_t>(i)];
      protocol->ProcessUpdate(site, value);
      state->sum += value;
      state->estimate = protocol->Estimate();
      const double abs_error = std::fabs(state->estimate - state->sum);
      const double abs_sum = std::fabs(state->sum);
      if (abs_error > options.epsilon * abs_sum + options.absolute_slack) {
        state->result.violation_steps += 1;
      }
      if (abs_sum >= options.rel_error_floor) {
        state->result.max_rel_error =
            std::max(state->result.max_rel_error, abs_error / abs_sum);
      }
      if (record_curve) {
        const int64_t done = state->t + i + 1;
        if (done % state->curve_stride == 0 || done == state->result.n) {
          state->result.curve.push_back(
              CurvePoint{done, protocol->stats().total(), state->sum,
                         state->estimate});
        }
      }
      ++i;
      site = next_site;
      continue;
    }

    int64_t pos = i;
    while (pos < i + run) {
      // Messages before the run: a curve point landing in the run's silent
      // prefix must not count the message its final update sends (the
      // per-update pump would not have sent it yet at that step). Probed
      // only when a curve is recorded — it is the sole consumer, and the
      // stats() call is not free for protocols that aggregate.
      const int64_t messages_before =
          record_curve ? protocol->stats().total() : 0;
      const int64_t consumed =
          protocol->ProcessBatch(site, chunk.subspan(static_cast<size_t>(pos),
                                                     static_cast<size_t>(
                                                         i + run - pos)));
      NMC_CHECK_GE(consumed, 1);
      NMC_CHECK_LE(consumed, i + run - pos);
      if (!record_curve && consumed >= 8) {
        // Vectorized invariant check over the run's silent prefix: the
        // estimate is frozen there (ProcessBatch contract), so the j-loop
        // below degenerates to a prefix-sum scan against a constant —
        // exactly CheckUnitPrefix. The kernel only accepts ±1 runs with
        // an integer running sum (where its regrouped additions are
        // bit-exact), and mirrors the loop's violation / max-rel-error
        // updates operation for operation, so TrackingResult is
        // bit-identical whether or not this path fires.
        common::PrefixCheckResult prefix;
        if (common::CheckUnitPrefix(
                chunk.subspan(static_cast<size_t>(pos),
                              static_cast<size_t>(consumed - 1)),
                state->sum, state->estimate, options.epsilon,
                options.absolute_slack, options.rel_error_floor,
                state->result.max_rel_error, &prefix)) {
          state->sum = prefix.final_sum;
          state->result.violation_steps += prefix.violations;
          state->result.max_rel_error =
              std::max(state->result.max_rel_error, prefix.max_rel_error);
          // The run's final update is the one that may have messaged:
          // refresh the estimate and check it the scalar way.
          state->sum += chunk[static_cast<size_t>(pos + consumed - 1)];
          state->estimate = protocol->Estimate();
          const double abs_error = std::fabs(state->estimate - state->sum);
          const double abs_sum = std::fabs(state->sum);
          if (abs_error >
              options.epsilon * abs_sum + options.absolute_slack) {
            state->result.violation_steps += 1;
          }
          if (abs_sum >= options.rel_error_floor) {
            state->result.max_rel_error =
                std::max(state->result.max_rel_error, abs_error / abs_sum);
          }
          pos += consumed;
          continue;
        }
      }
      for (int64_t j = 0; j < consumed; ++j) {
        state->sum += chunk[static_cast<size_t>(pos + j)];
        if (j == consumed - 1) state->estimate = protocol->Estimate();
        const double abs_error = std::fabs(state->estimate - state->sum);
        const double abs_sum = std::fabs(state->sum);
        if (abs_error > options.epsilon * abs_sum + options.absolute_slack) {
          state->result.violation_steps += 1;
        }
        if (abs_sum >= options.rel_error_floor) {
          state->result.max_rel_error =
              std::max(state->result.max_rel_error, abs_error / abs_sum);
        }
        if (state->curve_stride > 0) {
          const int64_t done = state->t + pos + j + 1;
          if (done % state->curve_stride == 0 || done == state->result.n) {
            state->result.curve.push_back(CurvePoint{
                done,
                j == consumed - 1 ? protocol->stats().total() : messages_before,
                state->sum, state->estimate});
          }
        }
      }
      pos += consumed;
    }
    i += run;
    site = next_site;
  }
  state->t += len;
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
