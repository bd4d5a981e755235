#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "runtime/process.h"
#include "runtime/threaded.h"

namespace nmc::runtime {

/// One scheduled crash of `site` at its kill point `after_consumed`, a
/// sequence number in the site's shard. The crash point is part of the
/// plan, not of the timing: the incarnation it hits frames nothing at or
/// past the kill point and announces the stop with kFin, and the
/// coordinator SIGKILLs it once that kFin arrives with everything before
/// it read. On the reliable link that is exactly `after_consumed` of the
/// site's updates consumed; on the raw link, drops may leave it short. A
/// killed site's unsent tail leaves the world, the process-level twin of
/// the sim CrashScheduleChannel. On the reliable link a replacement
/// incarnation is then forked that resumes the shard at the coordinator's
/// consumption cursor. A kill point at or past the shard's end never
/// fires: the site finishes first.
struct SiteKillSpec {
  int site = 0;
  int64_t after_consumed = 0;
};

/// Socket-level fault plan, applied at coordinator ingress so the faults
/// hit real frames on real sockets (the twin of BernoulliLossChannel /
/// CrashScheduleChannel, which perturb sim::Message objects in memory).
struct SocketFaultOptions {
  /// Probability of dropping an update at ingress, drawn per update inside
  /// each packed kUpdate frame. Control frames (kFin/kNack/kFinAck) ride
  /// a reliable control plane and are never dropped — loss models a flaky
  /// data path, not a broken link.
  double loss = 0.0;
  /// Seed of the deterministic fault stream. Drops hash (seed, site,
  /// arrival index of the update); the same plan replays the same faults.
  uint64_t seed = 1;
  std::vector<SiteKillSpec> kills;
};

struct SocketRunOptions {
  /// Serving layer, identical to the threads backend: query threads read
  /// the seqlock-published estimate while the run progresses.
  int num_readers = 0;
  bool capture = false;
  /// Reliable link discipline: strictly in-order consumption, gaps NACKed
  /// (go-back-N), killed sites respawned at the consumption cursor. When
  /// false the link is raw — dropped frames are lost forever and killed
  /// sites stay dead — which is exactly the configuration that must
  /// violate the tracking guarantee under loss (E14's point).
  bool reliable = true;
  SocketFaultOptions faults;
  /// Tracking-guarantee check against the generated world (see
  /// SocketStats::violation_steps), judged by sim::CheckCall; these are
  /// the two sim::TrackingOptions fields the check reads.
  double epsilon = 0.1;
  double rel_error_floor = 1.0;
  /// A respawned site must deliver its first resumed update within this
  /// many coordinator-consumed updates (across all sites) of the kill;
  /// otherwise the run reports all_kills_recovered = false. The kill ends
  /// the victim's turn and its next turn waits for the replacement, so
  /// the distance is one turn of each other site, whatever the fork
  /// costs.
  int64_t resync_deadline_updates = 1 << 20;
};

/// Link- and fault-level counters of one sockets run. The serving-side
/// counters (updates, publishes, reads, samples) live in the shared
/// ThreadedRunResult.
struct SocketStats {
  /// Frames decoded at ingress, all types, counted before the loss shim.
  int64_t frames = 0;
  int64_t drops_injected = 0;
  int64_t nacks_sent = 0;
  /// Updates discarded as already-consumed duplicates. Zero by design: a
  /// rewind restarts exactly at the first unconsumed update, and frames
  /// sent before it are discarded unconsumed.
  int64_t duplicate_updates = 0;
  int64_t kills_delivered = 0;
  int64_t respawns = 0;
  /// Worst observed kill->first-resumed-update distance, in coordinator
  /// consumed updates. 0 when no kill recovered (or none scheduled).
  int64_t max_recovery_updates = 0;
  /// Every scheduled kill was followed by a resumed update within
  /// resync_deadline_updates. Vacuously true without kills; always false
  /// for kills on a raw link (dead sites stay dead).
  bool all_kills_recovered = true;
  /// Updates the generated world contains but the coordinator never
  /// consumed: raw-link loss plus killed sites' in-flight gaps.
  int64_t updates_lost = 0;
  int64_t generated_updates = 0;
  /// Tracking-guarantee check of every consumed step against the exact
  /// sum of the *generated* world prefix (each site's shard up to its
  /// world cursor; a gap consumed out of order on the raw link pulls the
  /// skipped updates into the world — the site generated them, the
  /// protocol never saw them).
  int64_t violation_steps = 0;
  double max_rel_error = 0.0;
  /// Children that died without a scheduled kill (nonzero means a site
  /// crashed or hit a framing error — always a bug worth looking at).
  int64_t unexpected_exits = 0;
  /// Always 0: the sites receive no echoes; kept for nmc_benchmark, which
  /// still reads it.
  int64_t echoes_acked = 0;
  /// Rotations of the turn loop: each gives every unfinished site one
  /// turn.
  int64_t poll_rounds = 0;
  /// The idle watchdog stopped a wedged run (see RunSockets).
  bool timed_out = false;
  int children_reaped = 0;
};

struct SocketRunResult {
  /// Same shape the threads backend fills, so CheckLinearizable and the
  /// serving-layer reporting are transport-agnostic.
  ThreadedRunResult serving;
  SocketStats stats;
};

/// Runs `protocol` on the sockets transport backend: shards[i] streams
/// from a forked child process over a Unix-domain socketpair in the
/// versioned wire framing, up to 63 updates per frame. The coordinator
/// serves the sites in a fixed rotation of turns, about 2048 updates each
/// (whole frames), waiting on a site's socket during its turn, so the
/// order in which the protocol sees the sites' updates follows from the
/// shards and the fault plan, not from socket timing (save for how many
/// stale frames a go-back-N rewind discards). It reassembles and
/// expands frames, feeds each site's consecutive in-order updates to the
/// confined protocol through ProcessBatch, as the sim drive loop does,
/// and publishes the estimate after every ProcessBatch return through
/// the same seqlock serving layer as the threads backend. Returns once
/// every site has FIN/FinAck'd (or died per the fault plan) and every
/// child is reaped — no zombies, no open fds. A run that decodes no frame
/// over 20000 consecutive 1 ms waits (about 20 s) is wedged: the watchdog
/// SIGKILLs everything and returns with stats.timed_out set.
///
/// The protocol object is only ever touched by the calling thread;
/// processes own streaming, not protocol state.
SocketRunResult RunSockets(sim::Protocol* protocol,
                           std::span<const std::vector<double>> shards,
                           const SocketRunOptions& options);

}  // namespace nmc::runtime
