#include "runtime/sockets.h"

#include <algorithm>
#include <cerrno>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>

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

/// Safety stop: consecutive poll rounds with no frame consumed before the
/// coordinator declares the run wedged, SIGKILLs everything and returns
/// with timed_out set (a hung CI job is worse than a failed one). Each
/// idle round blocks ~1ms in poll.
constexpr int64_t kMaxIdlePolls = 20000;

/// Coordinator-side view of one site across its incarnations.
struct SiteState {
  SiteProcess proc;
  wire::FrameReassembler reassembler;
  /// One past the highest sequence number consumed, which on the
  /// reliable link is the only one consumable next (strictly in order).
  /// Also the generated-world cursor: shard[0..next_seq) is in the world.
  int64_t next_seq = 0;
  /// kUpdate frames seen at ingress — the loss shim's hash domain, so
  /// retransmissions of the same update draw fresh coins.
  int64_t arrival_updates = 0;
  int64_t consumed_from = 0;
  bool nacked_this_round = false;
  bool saw_eof = false;
  bool fin_acked = false;
  bool dead = false;
  /// Scheduled kills for this site, sorted by after_consumed.
  std::vector<int64_t> kill_after;
  size_t kill_idx = 0;
  bool kill_pending_eof = false;
  int64_t consumed_at_kill = -1;
  bool awaiting_recovery = false;

  bool done() const { return fin_acked || dead; }
  bool live_fd() const { return proc.fd >= 0 && !done(); }
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
  // is spawned.
  std::vector<SiteState> sites(static_cast<size_t>(num_sites));
  const auto spawn = [&](int s, int64_t resume_seq) {
    SiteSpawnOptions spawn_options;
    spawn_options.site_id = s;
    spawn_options.shard = shards[static_cast<size_t>(s)];
    spawn_options.resume_seq = resume_seq;
    sites[static_cast<size_t>(s)].proc = SpawnSiteProcess(spawn_options);
    sites[static_cast<size_t>(s)].reassembler = wire::FrameReassembler();
    sites[static_cast<size_t>(s)].saw_eof = false;
  };
  for (int s = 0; s < num_sites; ++s) spawn(s, 0);
  for (const SiteKillSpec& kill : options.faults.kills) {
    NMC_CHECK_GE(kill.site, 0);
    NMC_CHECK_LT(kill.site, num_sites);
    sites[static_cast<size_t>(kill.site)].kill_after.push_back(
        kill.after_consumed);
  }
  for (SiteState& st : sites) {
    std::sort(st.kill_after.begin(), st.kill_after.end());
  }

  // Checker state: world_sum is the exact sum of the generated world (all
  // per-site prefixes up to their world cursors).
  double world_sum = 0.0;
  int64_t consumed_total = 0;

  // Scheduled-kill delivery, update-granular: checked after every
  // ProcessBatch return (and once per round as a backstop), and drive()
  // ends each call at the site's next threshold, so the SIGKILL lands
  // exactly when the coordinator's consumption reaches it — not a whole
  // drain round later, by which point a fast child may already have
  // FIN'd.
  const auto maybe_kill = [&](SiteState& st) {
    if (st.done() || st.kill_pending_eof) return;
    if (st.kill_idx < st.kill_after.size() && st.proc.pid > 0 &&
        st.consumed_from >= st.kill_after[st.kill_idx]) {
      (void)kill(st.proc.pid, SIGKILL);
      st.kill_pending_eof = true;
      st.consumed_at_kill = consumed_total;
      ++st.kill_idx;
      ++stats.kills_delivered;
    }
  };

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
      // End the call at the site's next kill threshold, so maybe_kill
      // below fires at exactly that consumption count. An incarnation
      // already past its threshold is killed after one update.
      size_t len = values.size() - pos;
      if (!st.kill_pending_eof && st.kill_idx < st.kill_after.size()) {
        const int64_t to_kill = std::max<int64_t>(
            1, st.kill_after[st.kill_idx] - st.consumed_from);
        len = std::min(len, static_cast<size_t>(to_kill));
      }
      const std::span<const double> batch = values.subspan(pos, len);
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
      st.consumed_from += consumed;
      serving.Publish(consumed_total, estimate);
      maybe_kill(st);
      pos += static_cast<size_t>(consumed);
    }
    if (in_order) st.next_seq += static_cast<int64_t>(values.size());
  };

  const auto maybe_nack = [&](int s) {
    SiteState& st = sites[static_cast<size_t>(s)];
    if (st.nacked_this_round || st.proc.fd < 0) return;
    st.nacked_this_round = true;
    sim::Message nack;
    nack.type = static_cast<int>(FrameType::kNack);
    nack.u = st.next_seq;
    if (SendControl(st.proc.fd, nack, 200)) ++stats.nacks_sent;
  };

  // Handles one frame that is not the site's next in-order update (drain()
  // batches those): a control frame, or an update off the sequence.
  const auto handle_frame = [&](int s, const sim::Message& m) {
    SiteState& st = sites[static_cast<size_t>(s)];
    switch (static_cast<FrameType>(m.type)) {
      case FrameType::kUpdate: {
        const int64_t seq = m.u;
        if (options.reliable) {
          if (seq < st.next_seq) {
            ++stats.duplicate_updates;
          } else {
            maybe_nack(s);
          }
          return;
        }
        if (seq > st.next_seq) {
          // Raw-link gap: the skipped updates were generated (the site
          // sent them before this one) — they enter the world here, unseen
          // by the protocol. This is precisely where the raw counter's
          // estimate detaches from the truth. They are added one by one,
          // the same additions in-order consumption would have made.
          const std::vector<double>& shard = shards[static_cast<size_t>(s)];
          for (int64_t i = st.next_seq; i <= seq; ++i) {
            world_sum += shard[static_cast<size_t>(i)];
          }
          st.next_seq = seq + 1;
        }
        drive(s, std::span<const double>(&m.a, 1), /*in_order=*/false);
        return;
      }
      case FrameType::kFin: {
        if (options.reliable && m.u != st.next_seq) {
          // The site believes it is done but the coordinator has a gap:
          // rewind it. A stale pre-rewind FIN takes this branch too.
          maybe_nack(s);
          return;
        }
        stats.echoes_acked += m.v;
        sim::Message ack;
        ack.type = static_cast<int>(FrameType::kFinAck);
        (void)SendControl(st.proc.fd, ack, 200);
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

  // Drains site s's reassembler. Consecutive in-order kUpdate frames
  // collect in run_values and reach the protocol as one run; any other
  // frame first flushes the run, then goes to handle_frame. A loss-shim
  // drop is discarded on the spot: it touches nothing the run depends on,
  // and the frame after it is off the sequence anyway. run_values holds
  // the frames one round's reads can bring in; a fuller run flushes early.
  // Each recv asks for 2 × the window: a socket can hold that much, since
  // Linux doubles the buffer request.
  constexpr int kReadsPerRound = 8;
  constexpr size_t kRecvBytes = 2 * kSocketWindowBytes;
  std::vector<double> run_values(kReadsPerRound * kRecvBytes /
                                 wire::kFrameBytes);
  bool progressed_this_round = false;
  const auto drain = [&](int s) {
    SiteState& st = sites[static_cast<size_t>(s)];
    size_t len = 0;
    const auto flush = [&]() {
      drive(s, std::span<const double>(run_values.data(), len),
            /*in_order=*/true);
      len = 0;
    };
    sim::Message m;
    while (!st.done() && st.reassembler.Next(&m) == wire::DecodeStatus::kOk) {
      ++stats.frames;
      progressed_this_round = true;
      if (m.type == static_cast<int>(FrameType::kUpdate)) {
        const int64_t arrival = st.arrival_updates++;
        if (options.faults.loss > 0.0 &&
            FaultUniform(options.faults.seed, static_cast<uint64_t>(s),
                         static_cast<uint64_t>(arrival)) <
                options.faults.loss) {
          ++stats.drops_injected;
          continue;
        }
        if (m.u == st.next_seq + static_cast<int64_t>(len)) {
          run_values[len++] = m.a;
          if (len == run_values.size()) flush();
          continue;
        }
      }
      flush();
      handle_frame(s, m);
    }
    flush();
  };

  // The event loop: poll the live sockets, reassemble frames, feed the
  // confined protocol, publish. 1ms poll timeout keeps the fault schedule
  // and the idle watchdog ticking even when no site is talking.
  std::vector<struct pollfd> pfds;
  std::vector<int> pfd_site;
  pfds.reserve(static_cast<size_t>(num_sites));
  pfd_site.reserve(static_cast<size_t>(num_sites));
  int64_t last_echo = 0;
  int64_t idle_rounds = 0;

  while (true) {
    if (std::all_of(sites.begin(), sites.end(),
                    [](const SiteState& st) { return st.done(); })) {
      break;
    }

    ++stats.poll_rounds;
    progressed_this_round = false;

    pfds.clear();
    pfd_site.clear();
    for (int s = 0; s < num_sites; ++s) {
      SiteState& st = sites[static_cast<size_t>(s)];
      st.nacked_this_round = false;
      if (!st.live_fd()) continue;
      struct pollfd pfd;
      pfd.fd = st.proc.fd;
      pfd.events = POLLIN;
      pfd.revents = 0;
      pfds.push_back(pfd);
      pfd_site.push_back(s);
    }

    if (!pfds.empty()) {
      (void)poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 1);
    }

    for (size_t i = 0; i < pfds.size(); ++i) {
      const int s = pfd_site[i];
      SiteState& st = sites[static_cast<size_t>(s)];
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      // Bounded reads per site per round keep the loop fair across sites.
      for (int reads = 0; reads < kReadsPerRound; ++reads) {
        const ssize_t got = recv(
            st.proc.fd, st.reassembler.Reserve(kRecvBytes), kRecvBytes, 0);
        if (got > 0) {
          st.reassembler.Commit(static_cast<size_t>(got));
          if (got < static_cast<ssize_t>(kRecvBytes)) break;
          continue;
        }
        if (got == 0) {
          st.saw_eof = true;
        } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          st.saw_eof = true;  // reset by a killed peer: same as EOF
        }
        break;
      }
    }

    // Drain every reassembler fully, then settle EOFs. (A killed child's
    // final whole frames are consumed before its death is handled.)
    for (int s = 0; s < num_sites; ++s) {
      SiteState& st = sites[static_cast<size_t>(s)];
      drain(s);
      // Our own children cannot desynchronize the stream; a corrupt
      // reassembler means a wire bug, not a fault to tolerate.
      NMC_CHECK(!st.reassembler.corrupt());
      if (st.saw_eof) handle_eof(s);
    }

    // Backstop for kill thresholds already crossed when a site (re)spawns
    // — drive()-time delivery handles the common case. The EOF shows up on
    // a later round.
    for (int s = 0; s < num_sites; ++s) {
      maybe_kill(sites[static_cast<size_t>(s)]);
    }

    if (consumed_total - last_echo >= internal::kEchoPeriod) {
      last_echo = consumed_total;
      sim::Message echo;
      echo.type = static_cast<int>(FrameType::kEcho);
      echo.a = estimate;
      echo.u = consumed_total;
      for (const SiteState& st : sites) {
        if (!st.live_fd()) continue;
        if (SendControl(st.proc.fd, echo, 1)) ++result.echoes_sent;
      }
    }

    if (progressed_this_round) {
      idle_rounds = 0;
    } else if (++idle_rounds > kMaxIdlePolls) {
      stats.timed_out = true;
      break;
    }
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
