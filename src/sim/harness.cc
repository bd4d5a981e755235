#include "sim/harness.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"

namespace nmc::sim {

namespace {

/// How far ahead of the chunk being pumped the stream is requested. In the
/// sampled regime a chunk costs little more than reading it, so a chunk
/// found cold in DRAM stalls the pump; 4 KiB won a 2–32 KiB sweep on
/// sim_drift_block (DESIGN.md §7).
constexpr size_t kPrefetchAheadBytes = size_t{4} << 10;
constexpr uintptr_t kCacheLineBytes = 64;

/// Requests a stream's cache lines in order, each exactly once: Through(end)
/// prefetches every line not yet requested up to the one holding item
/// end - 1. The cursor is a line address (the first line may start before
/// item 0), and no pointer past the last item is formed.
class StreamPrefetcher {
 public:
  explicit StreamPrefetcher(const double* stream)
      : stream_(stream), next_line_(LineOf(stream)) {}

  void Through(size_t end) {
    if (end == 0) return;
    const uintptr_t last = LineOf(stream_ + (end - 1));
    for (; next_line_ <= last; next_line_ += kCacheLineBytes) {
      __builtin_prefetch(reinterpret_cast<const void*>(next_line_));
    }
  }

 private:
  static uintptr_t LineOf(const double* item) {
    return reinterpret_cast<uintptr_t>(item) & ~(kCacheLineBytes - 1);
  }

  const double* stream_;
  uintptr_t next_line_;
};

/// RunTracking's loop state, threaded through PumpChunk.
struct PumpState {
  TrackingResult result;
  double sum = 0.0;
  int64_t t = 0;               // items consumed so far
  int64_t curve_stride = 0;    // 0 = no curve
  double estimate = 0.0;       // protocol estimate after the last update
  std::vector<SiteRun> runs;   // psi's runs for the current chunk
};

/// True when step `done` (1-based) gets a curve point: every stride-th
/// step and the run's final step. Only meaningful when a curve is recorded.
bool CurvePointDue(int64_t done, const PumpState& state) {
  return done % state.curve_stride == 0 || done == state.result.n;
}

/// Pumps one contiguous chunk of the stream. psi places the chunk with one
/// Assign call into state->runs, and each Protocol::ProcessChunk call
/// consumes a prefix of what is left, stopping right after its first
/// communicating update. The call reports where it stopped, so the run
/// cursor moves in O(1): the runs it finished are skipped and the one it
/// stopped inside is trimmed in place. The ProcessChunk contract freezes
/// the estimate over the call's silent part, so the tracking invariant
/// there is checked against the cached estimate (CheckCall) and the
/// virtual Estimate() call is paid once per protocol call, not once per
/// item.
///
/// Kept out of line: GCC -O2 inlines it into RunTracking, which read 0.92x
/// sim_drift_block updates/s (x86-64, 16 alternating unpinned pairs).
[[gnu::noinline]] void PumpChunk(std::span<const double> chunk,
                                 AssignmentPolicy* psi, Protocol* protocol,
                                 const TrackingOptions& options,
                                 PumpState* state) {
  const size_t len = chunk.size();
  const bool record_curve = state->curve_stride > 0;
  const std::span<SiteRun> runs = std::span<SiteRun>(state->runs).first(
      psi->Assign(state->t, chunk, state->runs));

  size_t run = 0;
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
    NMC_CHECK_LT(run, runs.size());
    const ChunkStop stop = protocol->ProcessChunk(runs.subspan(run), rest);
    const int64_t consumed = stop.consumed;
    NMC_CHECK_GE(consumed, 1);
    NMC_CHECK_LE(consumed, static_cast<int64_t>(rest.size()));
    run += stop.run;
    if (stop.offset > 0) {
      NMC_CHECK_LT(run, runs.size());
      NMC_CHECK_LT(stop.offset, runs[run].length);
      runs[run].length -= stop.offset;
    }

    const double frozen = state->estimate;
    state->estimate = protocol->Estimate();
    const std::span<const double> call =
        rest.first(static_cast<size_t>(consumed));
    if (!record_curve) {
      CheckCall(call, frozen, state->estimate, options, &state->sum,
                &state->result);
    } else {
      // The call's last update is the one that may have messaged: it is
      // judged against the fresh estimate and its curve point counts the
      // messages after the call.
      for (size_t j = 0; j < call.size(); ++j) {
        const bool last = j + 1 == call.size();
        const double estimate = last ? state->estimate : frozen;
        state->sum += call[j];
        CheckStep(estimate, state->sum, options, &state->result);
        const int64_t done = state->t + static_cast<int64_t>(pos + j) + 1;
        if (CurvePointDue(done, *state)) {
          state->result.curve.push_back(CurvePoint{
              done, last ? protocol->stats().total() : messages_before,
              state->sum, estimate});
        }
      }
    }
    pos += call.size();
  }
  // The calls' reports must agree with their counts: a chunk's last call
  // ends exactly at the end of its last run.
  NMC_CHECK_EQ(run, runs.size());
  state->t += static_cast<int64_t>(len);
}

}  // namespace

TrackingResult RunTracking(const std::vector<double>& stream,
                           AssignmentPolicy* psi, Protocol* protocol,
                           const TrackingOptions& options) {
  NMC_CHECK(psi != nullptr);
  NMC_CHECK(protocol != nullptr);
  NMC_CHECK_GT(options.epsilon, 0.0);
  NMC_CHECK_GE(options.batch_size, 1);

  const int64_t n = static_cast<int64_t>(stream.size());
  PumpState state;
  state.result.n = n;
  state.runs.resize(static_cast<size_t>(options.batch_size));
  state.estimate = protocol->Estimate();
  state.curve_stride =
      options.curve_points > 0 ? std::max<int64_t>(1, n / options.curve_points)
                               : 0;
  if (state.curve_stride > 0) {
    // One point per stride plus the forced final point; +2 absorbs the
    // rounding so the push_back loop in PumpChunk never reallocates.
    state.result.curve.reserve(
        static_cast<size_t>(n / state.curve_stride + 2));
  }

  const std::span<const double> all(stream);
  const size_t batch = static_cast<size_t>(options.batch_size);
  constexpr size_t kAheadItems = kPrefetchAheadBytes / sizeof(double);
  StreamPrefetcher prefetch(all.data());
  for (size_t offset = 0; offset < all.size(); offset += batch) {
    const size_t len = std::min(batch, all.size() - offset);
    prefetch.Through(std::min(all.size(), offset + len + kAheadItems));
    PumpChunk(all.subspan(offset, len), psi, protocol, options, &state);
  }

  NMC_CHECK_EQ(state.t, n);
  state.result.messages = protocol->stats().total();
  state.result.broadcasts = protocol->stats().broadcasts;
  state.result.final_sum = state.sum;
  state.result.final_estimate = protocol->Estimate();
  return std::move(state.result);
}

}  // namespace nmc::sim
