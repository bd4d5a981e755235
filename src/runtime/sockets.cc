#include "runtime/sockets.h"

#include <algorithm>
#include <cerrno>
#include <chrono>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>

#include "common/batch_ops.h"
#include "common/check.h"
#include "runtime/serving.h"
#include "runtime/wire.h"
#include "sim/harness.h"
#include "sim/protocol.h"

namespace nmc::runtime {

namespace {

/// Deterministic fault stream: splitmix64-style finalizer over (seed,
/// site, index) mapped to [0, 1). The same fault plan replays the same
/// drops regardless of socket timing, which is what makes the
/// E14-over-sockets runs reproducible.
double FaultUniform(uint64_t seed, uint64_t site, uint64_t index) {
  uint64_t x = seed ^ (site * 0x9E3779B97F4A7C15ull) ^
               (index + 0xBF58476D1CE4E5B9ull);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

// nmc-lint: allow(NO_WALLCLOCK_IN_SIM) the transport's idle watchdog and its turn-wait timing; no result the protocol or the checker sees depends on the clock
using Clock = std::chrono::steady_clock;

/// Safety stop: consecutive idle time (turn waits with no frame decoded
/// between them) after which the coordinator declares the run wedged,
/// SIGKILLs everything and returns with timed_out set (a hung CI job is
/// worse than a failed one).
constexpr Clock::duration kMaxIdleTime = std::chrono::seconds(20);

/// Coordinator-side view of one site across its incarnations.
struct SiteState {
  SiteProcess proc;
  wire::FrameReassembler reassembler;
  /// One past the highest sequence number consumed, which on the
  /// reliable link is the only one consumable next (strictly in order).
  /// Also the generated-world cursor: shard[0..next_seq) is in the world.
  int64_t next_seq = 0;
  /// Updates seen at ingress, counted one by one inside each packed
  /// frame — the loss shim's hash domain, so retransmissions of the same
  /// update draw fresh coins.
  int64_t arrival_updates = 0;
  /// A kNack for next_seq is out and unanswered. The child's first frame
  /// after a rewind starts exactly at the NACKed sequence number, so until
  /// a frame starts there, every gap and every kFin read was sent before
  /// the rewind and asks for no second one.
  bool rewind_pending = false;
  bool saw_eof = false;
  bool fin_acked = false;
  bool dead = false;
  /// Scheduled kill points for this site, sorted; kill_idx is the next
  /// one, the stop point of the live incarnation.
  std::vector<int64_t> kill_points;
  size_t kill_idx = 0;
  bool kill_pending_eof = false;
  int64_t consumed_at_kill = -1;
  bool awaiting_recovery = false;

  bool done() const { return fin_acked || dead; }
};

}  // namespace

SocketRunResult RunSockets(sim::Protocol* protocol,
                           std::span<const std::vector<double>> shards,
                           const SocketRunOptions& options) {
  NMC_CHECK(protocol != nullptr);
  const int num_sites = protocol->num_sites();
  NMC_CHECK_EQ(static_cast<int>(shards.size()), num_sites);
  NMC_CHECK_GE(options.num_readers, 0);
  NMC_CHECK_GT(options.epsilon, 0.0);

  int64_t total_updates = 0;
  for (const std::vector<double>& shard : shards) {
    total_updates += static_cast<int64_t>(shard.size());
  }

  SocketRunResult run;
  ThreadedRunResult& result = run.serving;
  SocketStats& stats = run.stats;

  // Serving layer: identical to the threads backend.
  double estimate = protocol->Estimate();
  internal::ServingState serving(&result, options.capture,
                                 options.num_readers, total_updates, estimate);

  // Transport bring-up: one child per site, each polled from the moment it
  // is spawned. Each incarnation stops at its site's next kill point (or
  // the shard's end), so a kill always lands with the shard's tail unsent.
  std::vector<SiteState> sites(static_cast<size_t>(num_sites));
  for (const SiteKillSpec& kill : options.faults.kills) {
    NMC_CHECK_GE(kill.site, 0);
    NMC_CHECK_LT(kill.site, num_sites);
    sites[static_cast<size_t>(kill.site)].kill_points.push_back(
        kill.after_consumed);
  }
  const auto spawn = [&](int s, int64_t resume_seq) {
    SiteState& st = sites[static_cast<size_t>(s)];
    SiteSpawnOptions spawn_options;
    spawn_options.shard = shards[static_cast<size_t>(s)];
    spawn_options.resume_seq = resume_seq;
    const int64_t shard_n = static_cast<int64_t>(spawn_options.shard.size());
    spawn_options.stop_seq =
        st.kill_idx < st.kill_points.size()
            ? std::clamp(st.kill_points[st.kill_idx], resume_seq, shard_n)
            : shard_n;
    st.proc = SpawnSiteProcess(spawn_options);
    st.reassembler = wire::FrameReassembler();
    st.saw_eof = false;
    st.rewind_pending = false;
  };
  for (int s = 0; s < num_sites; ++s) {
    SiteState& st = sites[static_cast<size_t>(s)];
    std::sort(st.kill_points.begin(), st.kill_points.end());
    spawn(s, 0);
  }

  // Checker state: world_sum is the exact sum of the generated world (all
  // per-site prefixes up to their world cursors).
  double world_sum = 0.0;
  int64_t consumed_total = 0;

  // The tracking check is the sim harness's own, run against the generated
  // world; its tallies land in SocketStats at teardown.
  sim::TrackingOptions tracking;
  tracking.epsilon = options.epsilon;
  tracking.rel_error_floor = options.rel_error_floor;
  sim::TrackingResult checked;

  // Feeds `values`, consecutive updates of site s, to the protocol through
  // ProcessBatch and checks every one against the generated world. Over a
  // call's silent prefix the estimate is frozen (the ProcessBatch
  // contract), so only the call's last update reads a fresh Estimate(),
  // in-order calls are checked by the sim pump's own sim::CheckCall, and
  // the serving layer publishes once per call. In-order values are the
  // site's next shard entries and enter the world here; a raw-link gap or
  // duplicate arrives with its world accounting already settled, so it is
  // checked per update against the unchanged world sum.
  const auto drive = [&](int s, std::span<const double> values,
                         bool in_order) {
    SiteState& st = sites[static_cast<size_t>(s)];
    size_t pos = 0;
    while (pos < values.size()) {
      const std::span<const double> batch = values.subspan(pos);
      const int64_t consumed = protocol->ProcessBatch(s, batch);
      NMC_CHECK_GE(consumed, 1);
      NMC_CHECK_LE(consumed, static_cast<int64_t>(batch.size()));
      const std::span<const double> call =
          batch.first(static_cast<size_t>(consumed));
      const double frozen = estimate;
      estimate = protocol->Estimate();
      if (in_order) {
        sim::CheckCall(call, frozen, estimate, tracking, &world_sum,
                       &checked);
      } else {
        for (size_t j = 0; j < call.size(); ++j) {
          sim::CheckStep(j + 1 == call.size() ? estimate : frozen, world_sum,
                         tracking, &checked);
        }
      }
      if (options.capture) {
        for (const double value : call) {
          result.transcript.push_back(TranscriptEntry{s, value});
        }
      }
      if (st.awaiting_recovery) {
        st.awaiting_recovery = false;
        const int64_t recovery = consumed_total + 1 - st.consumed_at_kill;
        stats.max_recovery_updates =
            std::max(stats.max_recovery_updates, recovery);
        if (recovery > options.resync_deadline_updates) {
          stats.all_kills_recovered = false;
        }
      }
      consumed_total += consumed;
      serving.Publish(consumed_total, estimate);
      pos += static_cast<size_t>(consumed);
    }
    if (in_order) st.next_seq += static_cast<int64_t>(values.size());
  };

  const auto maybe_nack = [&](int s) {
    SiteState& st = sites[static_cast<size_t>(s)];
    if (st.rewind_pending || st.proc.fd < 0) return;
    sim::Message nack;
    nack.type = static_cast<int>(FrameType::kNack);
    nack.u = st.next_seq;
    if (SendControl(st.proc.fd, nack)) {
      ++stats.nacks_sent;
      st.rewind_pending = true;
    }
  };

  // Handles one update that is not the site's next in-order one (drain()
  // batches those): a duplicate or a gap.
  const auto handle_update = [&](int s, int64_t seq, double value) {
    SiteState& st = sites[static_cast<size_t>(s)];
    if (options.reliable) {
      if (seq < st.next_seq) {
        ++stats.duplicate_updates;
      } else {
        maybe_nack(s);
      }
      return;
    }
    if (seq > st.next_seq) {
      // Raw-link gap: the skipped updates were generated (the site sent
      // them before this one) — they enter the world here, unseen by the
      // protocol. This is precisely where the raw counter's estimate
      // detaches from the truth. They are added one by one, the same
      // additions in-order consumption would have made.
      const std::vector<double>& shard = shards[static_cast<size_t>(s)];
      for (int64_t i = st.next_seq; i <= seq; ++i) {
        world_sum += shard[static_cast<size_t>(i)];
      }
      st.next_seq = seq + 1;
    }
    drive(s, std::span<const double>(&value, 1), /*in_order=*/false);
  };

  // Handles one control frame from a site.
  const auto handle_frame = [&](int s, const sim::Message& m) {
    SiteState& st = sites[static_cast<size_t>(s)];
    switch (static_cast<FrameType>(m.type)) {
      case FrameType::kFin: {
        if (options.reliable && m.u != st.next_seq) {
          // The site believes it is done but the coordinator has a gap:
          // rewind it. A stale pre-rewind FIN lands here too, while its
          // rewind is pending, and asks for none.
          maybe_nack(s);
          return;
        }
        if (m.u < static_cast<int64_t>(shards[static_cast<size_t>(s)].size())) {
          // The incarnation stopped at its kill point with everything
          // before it read (on the raw link, minus drops): the crash.
          NMC_CHECK_LT(st.kill_idx, st.kill_points.size());
          (void)kill(st.proc.pid, SIGKILL);
          st.kill_pending_eof = true;
          st.consumed_at_kill = consumed_total;
          ++st.kill_idx;
          ++stats.kills_delivered;
          return;
        }
        sim::Message ack;
        ack.type = static_cast<int>(FrameType::kFinAck);
        (void)SendControl(st.proc.fd, ack);
        st.fin_acked = true;
        // The child exits on FinAck or on the EOF our close() produces —
        // either way this reap is bounded.
        (void)ReapSiteProcess(&st.proc, false);
        ++stats.children_reaped;
        return;
      }
      default:
        return;  // site->coordinator control we don't know; ignore.
    }
  };

  const auto handle_eof = [&](int s) {
    SiteState& st = sites[static_cast<size_t>(s)];
    st.saw_eof = false;
    if (st.done()) return;
    // A partial trailing frame (SIGKILL mid-send) dies with this
    // incarnation's reassembler; whole frames were already drained.
    (void)ReapSiteProcess(&st.proc, true);
    ++stats.children_reaped;
    if (st.kill_pending_eof) {
      st.kill_pending_eof = false;
      if (options.reliable) {
        spawn(s, st.next_seq);
        ++stats.respawns;
        st.awaiting_recovery = true;
      } else {
        st.dead = true;
        stats.all_kills_recovered = false;
      }
    } else {
      ++stats.unexpected_exits;
      st.dead = true;
    }
  };

  // Reads what site s's socket holds into its reassembler. Returns false
  // when the socket had nothing; EOF or a reset (a killed peer) sets
  // saw_eof. One recv asks for 2 × the window, about 23 turns of one
  // site; the socket itself may hold 32 windows (kSocketBufferBytes).
  constexpr size_t kRecvBytes = 2 * kSocketWindowBytes;
  const auto fill = [&](int s) {
    SiteState& st = sites[static_cast<size_t>(s)];
    const ssize_t got =
        recv(st.proc.fd, st.reassembler.Reserve(kRecvBytes), kRecvBytes, 0);
    if (got > 0) {
      st.reassembler.Commit(static_cast<size_t>(got));
      return true;
    }
    if (got == 0 ||
        (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      st.saw_eof = true;
      return true;
    }
    return false;
  };

  // One turn of site s: up to kTurnUpdates of its updates, counted as
  // frames expand (drops and stale resends included), so the turn ends on
  // a frame boundary. Consecutive in-order updates collect in run_values
  // and reach the protocol as one run. Without the loss shim, a frame that
  // starts at the run's next sequence number expands straight into
  // run_values. A frame past the sequence while a go-back-N rewind is
  // pending was sent before the rewind and is discarded whole, unexpanded.
  // Every other update frame (any frame once the shim is on, a gap, a
  // stale resend) expands into a stack array and is walked update by
  // update: an in-order update joins the run, any other one first
  // flushes the run, then goes to handle_update, and so does any control
  // frame to handle_frame. A loss-shim drop, drawn per update, is
  // discarded on the spot: it touches nothing the run depends on, and the
  // update after it is off the sequence anyway. A turn that starts with
  // less than a window buffered reads the socket first, so the child can
  // refill it while the buffered frames are consumed instead of after.
  // With no whole frame buffered the turn reads the socket, and waits on
  // it when it is empty (stats.turn_waits): the turn belongs to s
  // whatever the other sites have sent.
  // The reassembler holds at most a window plus one recv. A planned
  // crash ends the turn; the killed incarnation's EOF and its replacement
  // are met on s's next one.
  // Returns false when the idle watchdog fires.
  std::vector<double> run_values(kTurnUpdates + wire::kMaxRunUpdates);
  const bool lossy = options.faults.loss > 0.0;
  const common::ExpandSelectorsFn expand = common::ExpandSelectorsKernel();
  // The start of the current stretch of consecutive idle time: set by the
  // first turn wait after a decoded frame, cleared by the next one.
  bool idle = false;
  Clock::time_point idle_since;
  const auto take_turn = [&](int s) {
    SiteState& st = sites[static_cast<size_t>(s)];
    size_t len = 0;
    const auto flush = [&]() {
      drive(s, std::span<const double>(run_values.data(), len),
            /*in_order=*/true);
      len = 0;
    };
    int64_t taken = 0;
    if (st.proc.fd >= 0 && !st.saw_eof &&
        st.reassembler.buffered_bytes() < kSocketWindowBytes) {
      (void)fill(s);
    }
    sim::Message m;
    double values[wire::kMaxRunUpdates];
    while (!st.done() && taken < kTurnUpdates) {
      if (st.reassembler.Next(&m) != wire::DecodeStatus::kOk) {
        // Our own children cannot desynchronize the stream; a corrupt
        // reassembler means a wire bug, not a fault to tolerate.
        NMC_CHECK(!st.reassembler.corrupt());
        flush();
        if (st.saw_eof) {
          // A partial trailing frame (SIGKILL mid-send) dies with this
          // incarnation's reassembler; whole frames were already drained.
          handle_eof(s);
          continue;
        }
        if (fill(s)) continue;
        struct pollfd pfd;
        pfd.fd = st.proc.fd;
        pfd.events = POLLIN;
        pfd.revents = 0;
        const Clock::time_point wait_start = Clock::now();
        (void)poll(&pfd, 1, 1);
        const Clock::time_point wait_end = Clock::now();
        ++stats.turn_waits;
        stats.turn_wait_s +=
            std::chrono::duration<double>(wait_end - wait_start).count();
        if (!idle) idle_since = wait_start;
        idle = true;
        if (wait_end - idle_since > kMaxIdleTime) return false;
        continue;
      }
      idle = false;
      ++stats.frames;
      if (m.type != static_cast<int>(FrameType::kUpdate)) {
        flush();
        handle_frame(s, m);
        if (st.kill_pending_eof) break;
        continue;
      }
      const int64_t expected = st.next_seq + static_cast<int64_t>(len);
      const bool in_order = m.u == expected;
      if (in_order) st.rewind_pending = false;  // a rewind's first frame
      if (st.rewind_pending && m.u > expected) {
        // Sent before the rewind its kNack asked for: every update in it is
        // past the gap and would be discarded one by one, so the frame is
        // discarded whole, unexpanded. Its updates still count as arrivals
        // (the loss shim's hash domain), so every later coin is the one the
        // per-update walk would have drawn; only the drops it would have
        // counted among these discarded updates go uncounted.
        const int count = wire::RunLength(m);
        NMC_CHECK_GE(count, 1);  // a frame without an update is a wire bug
        taken += count;
        st.arrival_updates += count;
        continue;
      }
      // On a lossless link an in-order frame is all run: it expands straight
      // into run_values, which has room (len <= taken < kTurnUpdates here).
      double* const dest =
          in_order && !lossy ? run_values.data() + len : values;
      const int count = wire::ExpandRun(m, dest, expand);
      NMC_CHECK_GE(count, 1);  // a frame without an update is a wire bug
      taken += count;
      if (dest != values) {
        len += static_cast<size_t>(count);
        st.arrival_updates += count;
        continue;
      }
      for (int i = 0; i < count; ++i) {
        const int64_t arrival = st.arrival_updates++;
        if (lossy &&
            FaultUniform(options.faults.seed, static_cast<uint64_t>(s),
                         static_cast<uint64_t>(arrival)) <
                options.faults.loss) {
          ++stats.drops_injected;
          continue;
        }
        const int64_t seq = m.u + i;
        if (seq == st.next_seq + static_cast<int64_t>(len)) {
          run_values[len++] = values[i];
          continue;
        }
        flush();
        handle_update(s, seq, values[i]);
      }
    }
    flush();
    return true;
  };

  // The event loop: the sites take their turns in a fixed rotation, so
  // the order in which the protocol sees the sites' updates follows from
  // the shards and the fault plan, not from socket timing.
  while (!std::all_of(sites.begin(), sites.end(),
                      [](const SiteState& st) { return st.done(); })) {
    ++stats.poll_rounds;
    for (int s = 0; s < num_sites; ++s) {
      if (sites[static_cast<size_t>(s)].done()) continue;
      if (!take_turn(s)) {
        stats.timed_out = true;
        break;
      }
    }
    if (stats.timed_out) break;
  }

  // Teardown: stop the serving layer, then make sure nothing survives us —
  // no zombies, no open fds, regardless of how the loop ended.
  serving.Finish();
  for (SiteState& st : sites) {
    if (st.proc.pid > 0 || st.proc.fd >= 0) {
      (void)ReapSiteProcess(&st.proc, true);
      ++stats.children_reaped;
    }
    if (st.awaiting_recovery) stats.all_kills_recovered = false;
    if (st.kill_pending_eof) stats.all_kills_recovered = false;
    stats.generated_updates += st.next_seq;
  }
  stats.updates_lost = stats.generated_updates - consumed_total;
  stats.violation_steps = checked.violation_steps;
  stats.max_rel_error = checked.max_rel_error;

  result.updates = consumed_total;
  result.final_published = PublishedEstimate{consumed_total, estimate};
  return run;
}

}  // namespace nmc::runtime
