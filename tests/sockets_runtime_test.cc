// End-to-end tests of the sockets transport: forked site processes, the
// framed wire, the go-back-N reliable link, and the fault twins (socket
// loss, SIGKILL). Everything here runs real fork/socketpair machinery, so
// the assertions are about contracts (bit-identical replay, zero leaks of
// children or fds) rather than timing.

#include "runtime/sockets.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "baselines/exact_sync.h"
#include "registry/builtin.h"
#include "runtime/run.h"
#include "runtime/threaded.h"
#include "runtime/wire.h"
#include "sim/registry.h"
#include "streams/bernoulli.h"

// The SIGKILL tests fork children that the sanitizer runtimes dislike
// interrupting; under TSan the atexit machinery of a killed child can
// deadlock spuriously, so those tests are compiled out there (ASan and
// plain builds run them).
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NMC_TSAN 1
#endif
#endif
#ifndef NMC_TSAN
#define NMC_TSAN 0
#endif

namespace nmc::runtime {
namespace {

sim::ProtocolParams TestParams(int64_t n) {
  sim::ProtocolParams params;
  params.epsilon = 0.25;
  params.horizon_n = n;
  params.seed = 41;
  return params;
}

std::unique_ptr<sim::Protocol> MakeCounter(int num_sites, int64_t n) {
  registry::RegisterBuiltinProtocols();
  return sim::ProtocolRegistry::Global().Create("counter", num_sites,
                                                TestParams(n));
}

std::vector<std::vector<double>> TestShards(int64_t n, int num_sites,
                                            uint64_t seed) {
  return ShardRoundRobin(streams::BernoulliStream(n, 0.2, seed), num_sites);
}

// A control frame gets kControlSendAttempts tries on a full socket. When
// they run out the call must fail with nothing written (no torn frame), so
// the peer reads exactly the frames that were accepted, whole and in order.
TEST(SocketsRuntimeTest, SendControlOnFullSocketGivesUpAfterFixedAttempts) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  BoundSocketBuffers(fds[0]);
  BoundSocketBuffers(fds[1]);
  ASSERT_TRUE(SetNonBlocking(fds[0]));
  ASSERT_TRUE(SetNonBlocking(fds[1]));

  sim::Message nack;
  nack.type = static_cast<int>(FrameType::kNack);
  int64_t accepted = 0;
  std::chrono::steady_clock::duration refused_call{};
  for (;;) {
    nack.u = accepted;
    const auto start = std::chrono::steady_clock::now();
    if (!SendControl(fds[0], nack)) {
      refused_call = std::chrono::steady_clock::now() - start;
      break;
    }
    ++accepted;
    ASSERT_LT(accepted, int64_t{1} << 20) << "the buffer never filled";
  }
  EXPECT_GT(accepted, 0);
  // Every try but the last waits at least 1 ms for POLLOUT.
  EXPECT_GE(refused_call, std::chrono::milliseconds(kControlSendAttempts - 1));

  wire::FrameReassembler reassembler;
  for (;;) {
    const ssize_t got = recv(fds[1], reassembler.Reserve(4096), 4096, 0);
    if (got <= 0) break;
    reassembler.Commit(static_cast<size_t>(got));
  }
  int64_t frames = 0;
  sim::Message out;
  while (reassembler.Next(&out) == wire::DecodeStatus::kOk) {
    EXPECT_EQ(out.type, static_cast<int>(FrameType::kNack));
    EXPECT_EQ(out.u, frames);
    ++frames;
  }
  EXPECT_EQ(frames, accepted);
  EXPECT_FALSE(reassembler.corrupt());
  EXPECT_EQ(reassembler.buffered_bytes(), 0u);
  close(fds[0]);
  close(fds[1]);
}

TEST(SocketsRuntimeTest, ConsumesEveryUpdateAndTearsDownCleanly) {
  const int64_t n = 8192;
  const int k = 4;
  const auto shards = TestShards(n, k, 91);
  const auto protocol = MakeCounter(k, n);
  SocketRunOptions options;
  const SocketRunResult result = RunSockets(protocol.get(), shards, options);
  EXPECT_EQ(result.serving.updates, n);
  EXPECT_FALSE(result.stats.timed_out);
  EXPECT_EQ(result.stats.unexpected_exits, 0);
  EXPECT_EQ(result.stats.children_reaped, k);
  EXPECT_EQ(result.stats.updates_lost, 0);
  EXPECT_EQ(result.stats.generated_updates, n);
  // A ±1 stream has at most two distinct values, so every update frame but
  // a shard's last carries 63 updates; each shard ends with one kFin.
  int64_t frames = 0;
  for (const std::vector<double>& shard : shards) {
    const int64_t size = static_cast<int64_t>(shard.size());
    frames += (size + wire::kMaxRunUpdates - 1) / wire::kMaxRunUpdates + 1;
  }
  EXPECT_EQ(frames, 136);  // 4 shards of 2048: 33 update frames + kFin each
  EXPECT_EQ(result.stats.frames, frames);
}

// One turn of a ±1 shard: the coordinator's 2048 updates rounded up to
// the end of a packed frame (33 frames of 63).
constexpr int64_t kPackedTurnUpdates = 2079;

// The coordinator serves the sites in a fixed rotation of turns, so the
// order in which the protocol sees their updates follows from the shards
// alone: site 0's first turn, site 1's, site 2's, site 0's second, ...,
// however the sockets happen to fill.
TEST(SocketsRuntimeTest, SitesTakeFixedTurns) {
  const int64_t n = int64_t{1} << 14;
  const int k = 3;
  const auto shards = TestShards(n, k, 93);
  std::vector<int64_t> expected;
  std::vector<int64_t> left;
  for (const std::vector<double>& shard : shards) {
    left.push_back(static_cast<int64_t>(shard.size()));
  }
  int64_t rotations = 0;
  while (expected.size() < static_cast<size_t>(n)) {
    ++rotations;
    for (int s = 0; s < k; ++s) {
      const int64_t take = std::min(kPackedTurnUpdates, left[s]);
      expected.insert(expected.end(), static_cast<size_t>(take), s);
      left[s] -= take;
    }
  }
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto protocol = MakeCounter(k, n);
    SocketRunOptions options;
    options.capture = true;
    const SocketRunResult result = RunSockets(protocol.get(), shards, options);
    ASSERT_EQ(result.serving.updates, n);
    std::vector<int64_t> order;
    for (const TranscriptEntry& entry : result.serving.transcript) {
      order.push_back(entry.site);
    }
    EXPECT_EQ(order, expected) << "attempt " << attempt;
    EXPECT_EQ(result.stats.poll_rounds, rotations);
  }
}

TEST(SocketsRuntimeTest, CapturedRunReplaysBitIdenticallyAgainstSimOracle) {
  const int64_t n = 8192;
  const int k = 4;
  const auto shards = TestShards(n, k, 92);
  const auto protocol = MakeCounter(k, n);
  SocketRunOptions options;
  options.capture = true;
  options.num_readers = 2;
  const SocketRunResult result = RunSockets(protocol.get(), shards, options);
  ASSERT_EQ(result.serving.updates, n);
  const auto oracle = MakeCounter(k, n);
  const LinearizabilityReport report =
      CheckLinearizable(result.serving, oracle.get());
  EXPECT_TRUE(report.linearizable) << report.failure;
  EXPECT_EQ(report.publishes_checked, result.serving.publishes);
  EXPECT_GT(report.samples_checked, 0);
  EXPECT_EQ(result.serving.generation_regressions, 0);
}

// The coordinator publishes once per ProcessBatch return, not once per
// frame: on a drift stream the counter's silent runs are long, so
// publishes fall far below updates, and the captured run still replays
// bit-identically.
TEST(SocketsRuntimeTest, PublishesOncePerBatchOnDriftStream) {
  const int64_t n = int64_t{1} << 15;
  const int k = 2;
  const auto shards = TestShards(n, k, 97);
  const auto protocol = MakeCounter(k, n);
  SocketRunOptions options;
  options.capture = true;
  options.num_readers = 2;
  const SocketRunResult result = RunSockets(protocol.get(), shards, options);
  ASSERT_EQ(result.serving.updates, n);
  EXPECT_LT(result.serving.publishes, n / 4);
  const auto oracle = MakeCounter(k, n);
  const LinearizabilityReport report =
      CheckLinearizable(result.serving, oracle.get());
  EXPECT_TRUE(report.linearizable) << report.failure;
  EXPECT_EQ(report.publishes_checked, result.serving.publishes);
}

// A protocol that communicates on every update ends every ProcessBatch
// call after one update, so the cadence degrades to one publish per
// update, plus generation 0.
TEST(SocketsRuntimeTest, PublishesEveryUpdateWhenEveryUpdateCommunicates) {
  const int64_t n = 4096;
  const int k = 2;
  const auto shards = TestShards(n, k, 98);
  baselines::ExactSyncProtocol protocol(k);
  const SocketRunResult result =
      RunSockets(&protocol, shards, SocketRunOptions());
  ASSERT_EQ(result.serving.updates, n);
  EXPECT_EQ(result.serving.publishes, n + 1);
}

TEST(SocketsRuntimeTest, RawLinkUnderLossViolatesAndLosesUpdates) {
  const int64_t n = 8192;
  const int k = 4;
  const auto shards = TestShards(n, k, 93);
  baselines::ExactSyncProtocol protocol(k);
  SocketRunOptions options;
  options.reliable = false;
  options.faults.loss = 0.02;
  options.faults.seed = 7;
  options.epsilon = 0.002;
  options.rel_error_floor = 32.0;
  const SocketRunResult result = RunSockets(&protocol, shards, options);
  EXPECT_GT(result.stats.drops_injected, 0);
  EXPECT_GT(result.stats.updates_lost, 0);
  EXPECT_GT(result.stats.violation_steps, 0);
  EXPECT_EQ(result.stats.nacks_sent, 0) << "raw link must never NACK";
  // Lost = generated-but-never-consumed; drops at a shard's very tail
  // never enter the generated world at all, so generated <= n.
  EXPECT_EQ(result.serving.updates + result.stats.updates_lost,
            result.stats.generated_updates);
  EXPECT_LE(result.stats.generated_updates, n);
  EXPECT_LT(result.serving.updates, n);
  EXPECT_FALSE(result.stats.timed_out);
}

TEST(SocketsRuntimeTest, ReliableLinkUnderLossIsExact) {
  const int64_t n = 8192;
  const int k = 4;
  const auto shards = TestShards(n, k, 93);
  baselines::ExactSyncProtocol protocol(k);
  SocketRunOptions options;
  options.reliable = true;
  options.faults.loss = 0.02;
  options.faults.seed = 7;
  options.epsilon = 0.002;
  const SocketRunResult result = RunSockets(&protocol, shards, options);
  EXPECT_EQ(result.serving.updates, n);
  EXPECT_EQ(result.stats.updates_lost, 0);
  EXPECT_EQ(result.stats.violation_steps, 0);
  EXPECT_GT(result.stats.drops_injected, 0);
  EXPECT_GT(result.stats.nacks_sent, 0) << "loss must trigger go-back-N";
  // A rewind is answered by the frame that starts at the NACKed update,
  // and the stale frames before it are discarded unconsumed, so go-back-N
  // never resends an update the coordinator already consumed.
  EXPECT_EQ(result.stats.duplicate_updates, 0);
  EXPECT_FALSE(result.stats.timed_out);
}

#if !NMC_TSAN

// Each incarnation stops framing at its kill point, so a kill lands
// mid-shard exactly when the kill point falls inside the shard.
void ExpectKillsLandMidShard(const std::vector<std::vector<double>>& shards,
                             const SocketFaultOptions& faults) {
  for (const SiteKillSpec& kill : faults.kills) {
    const std::vector<double>& shard = shards[static_cast<size_t>(kill.site)];
    EXPECT_LT(kill.after_consumed, static_cast<int64_t>(shard.size()))
        << "site " << kill.site << " finishes before its kill point";
  }
}

TEST(SocketsRuntimeTest, SigkilledSiteRespawnsAndFinishesExactly) {
  const int64_t n = 8192;
  const int k = 4;
  const auto shards = TestShards(n, k, 95);
  baselines::ExactSyncProtocol protocol(k);
  SocketRunOptions options;
  options.reliable = true;
  options.epsilon = 0.002;
  options.resync_deadline_updates = n;
  options.faults.kills.push_back(SiteKillSpec{1, 512});
  ExpectKillsLandMidShard(shards, options.faults);
  const SocketRunResult result = RunSockets(&protocol, shards, options);
  EXPECT_EQ(result.stats.kills_delivered, 1);
  EXPECT_EQ(result.stats.respawns, 1);
  EXPECT_TRUE(result.stats.all_kills_recovered);
  EXPECT_GT(result.stats.max_recovery_updates, 0);
  EXPECT_LE(result.stats.max_recovery_updates, n);
  EXPECT_EQ(result.serving.updates, n)
      << "the replacement incarnation must finish the shard";
  EXPECT_EQ(result.stats.violation_steps, 0);
  EXPECT_EQ(result.stats.updates_lost, 0);
  EXPECT_EQ(result.stats.unexpected_exits, 0);
  // k children FIN'd plus one killed incarnation reaped on EOF.
  EXPECT_EQ(result.stats.children_reaped, k + 1);
}

// The kill ends the victim's turn and its next turn waits for the
// replacement, so the recovery distance is one turn of each other site
// (plus the first resumed update) however long the fork takes.
TEST(SocketsRuntimeTest, RecoveryDistanceIsOneTurnOfEachOtherSite) {
  const int64_t n = 3 * 8192;
  const int k = 3;
  const auto shards = TestShards(n, k, 96);
  for (int attempt = 0; attempt < 3; ++attempt) {
    baselines::ExactSyncProtocol protocol(k);
    SocketRunOptions options;
    options.epsilon = 0.002;
    options.resync_deadline_updates = n;
    options.faults.kills.push_back(SiteKillSpec{0, 1000});
    ExpectKillsLandMidShard(shards, options.faults);
    const SocketRunResult result = RunSockets(&protocol, shards, options);
    EXPECT_EQ(result.stats.respawns, 1);
    EXPECT_TRUE(result.stats.all_kills_recovered);
    EXPECT_EQ(result.stats.max_recovery_updates, 2 * kPackedTurnUpdates + 1)
        << "attempt " << attempt;
    EXPECT_EQ(result.serving.updates, n);
    EXPECT_EQ(result.stats.violation_steps, 0);
  }
}

// The counter consumes long ProcessBatch runs, which end at each kill
// point because the victim frames nothing past it. The killed sites'
// replacements must finish the shards, and the captured run must still
// replay bit-identically.
TEST(SocketsRuntimeTest, SigkillMidBatchRespawnsAndReplays) {
  const int64_t n = int64_t{1} << 15;
  const int k = 2;
  const auto shards = TestShards(n, k, 99);
  const auto protocol = MakeCounter(k, n);
  SocketRunOptions options;
  options.capture = true;
  options.resync_deadline_updates = n;
  options.faults.kills.push_back(SiteKillSpec{0, 777});
  options.faults.kills.push_back(SiteKillSpec{1, 5000});
  ExpectKillsLandMidShard(shards, options.faults);
  const SocketRunResult result = RunSockets(protocol.get(), shards, options);
  EXPECT_EQ(result.stats.kills_delivered, 2);
  EXPECT_EQ(result.stats.respawns, 2);
  EXPECT_TRUE(result.stats.all_kills_recovered);
  ASSERT_EQ(result.serving.updates, n);
  EXPECT_EQ(result.stats.updates_lost, 0);
  EXPECT_EQ(result.stats.unexpected_exits, 0);
  const auto oracle = MakeCounter(k, n);
  const LinearizabilityReport report =
      CheckLinearizable(result.serving, oracle.get());
  EXPECT_TRUE(report.linearizable) << report.failure;
}

TEST(SocketsRuntimeTest, SigkillOnRawLinkStaysDeadAndTearsDown) {
  const int64_t n = 8192;
  const int k = 4;
  const auto shards = TestShards(n, k, 96);
  baselines::ExactSyncProtocol protocol(k);
  SocketRunOptions options;
  options.reliable = false;
  options.epsilon = 0.002;
  options.faults.kills.push_back(SiteKillSpec{2, 256});
  ExpectKillsLandMidShard(shards, options.faults);
  const SocketRunResult result = RunSockets(&protocol, shards, options);
  EXPECT_EQ(result.stats.kills_delivered, 1);
  EXPECT_EQ(result.stats.respawns, 0);
  EXPECT_FALSE(result.stats.all_kills_recovered);
  EXPECT_EQ(result.serving.updates,
            n - (static_cast<int64_t>(shards[2].size()) - 256))
      << "the dead site's tail past its kill point is gone";
  EXPECT_EQ(result.stats.children_reaped, k);
  EXPECT_FALSE(result.stats.timed_out);
}

// On the raw link, drops before the kill point keep the victim's consumed
// count short of it for good; the kill still fires when the victim's kFin
// announces its stop, so the run ends instead of waiting for the idle
// watchdog. Fault seed 32 drops site 2's update 255, the last before its
// kill point, so not even the coordinator's sequence cursor reaches it.
TEST(SocketsRuntimeTest, SigkillOnRawLinkUnderLossFiresAtTheStop) {
  const int64_t n = 8192;
  const int k = 4;
  const auto shards = TestShards(n, k, 96);
  baselines::ExactSyncProtocol protocol(k);
  SocketRunOptions options;
  options.reliable = false;
  options.epsilon = 0.002;
  options.faults.loss = 0.1;
  options.faults.seed = 32;
  options.faults.kills.push_back(SiteKillSpec{2, 256});
  ExpectKillsLandMidShard(shards, options.faults);
  const SocketRunResult result = RunSockets(&protocol, shards, options);
  EXPECT_FALSE(result.stats.timed_out);
  EXPECT_GT(result.stats.drops_injected, 0);
  EXPECT_EQ(result.stats.kills_delivered, 1);
  EXPECT_EQ(result.stats.respawns, 0);
  EXPECT_EQ(result.stats.unexpected_exits, 0);
  EXPECT_EQ(result.stats.children_reaped, k);
  EXPECT_LT(result.serving.updates,
            n - (static_cast<int64_t>(shards[2].size()) - 256));
}

#endif  // !NMC_TSAN

// Pops the next frame a site child sends, reading the socket as needed.
// False on EOF, a framing error, or 5 s without a frame.
bool NextFrame(int fd, wire::FrameReassembler* reassembler,
               sim::Message* out) {
  while (reassembler->Next(out) != wire::DecodeStatus::kOk) {
    if (reassembler->corrupt()) return false;
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    if (poll(&pfd, 1, 5000) <= 0) return false;
    const ssize_t got = recv(fd, reassembler->Reserve(4096), 4096, 0);
    if (got == 0) return false;
    if (got > 0) reassembler->Commit(static_cast<size_t>(got));
  }
  return true;
}

// Releases a child the test acts as coordinator for, and checks it exits
// cleanly.
void ReleaseChild(SiteProcess* site) {
  sim::Message ack;
  ack.type = static_cast<int>(FrameType::kFinAck);
  EXPECT_TRUE(SendControl(site->fd, ack));
  const int status = ReapSiteProcess(site, false);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// The test acts as the coordinator of one site child. A kNack whose u
// falls inside a packed frame already sent rewinds the child: frames of
// the old batch keep arriving in sequence, and the first frame off that
// sequence starts exactly at u and carries shard[u..].
TEST(SocketsRuntimeTest, NackInsidePackedFrameRewindsToItsUpdate) {
  const std::vector<double> shard =
      streams::BernoulliStream(int64_t{1} << 16, 0.2, 94);
  SiteSpawnOptions spawn;
  spawn.shard = shard;
  spawn.stop_seq = static_cast<int64_t>(shard.size());
  SiteProcess site = SpawnSiteProcess(spawn);
  wire::FrameReassembler reassembler;
  sim::Message m;
  ASSERT_TRUE(NextFrame(site.fd, &reassembler, &m));
  ASSERT_EQ(m.type, static_cast<int>(FrameType::kUpdate));
  ASSERT_EQ(m.u, 0);
  ASSERT_EQ(wire::RunLength(m), wire::kMaxRunUpdates);
  const int64_t rewind = 40;  // inside the first frame
  sim::Message nack;
  nack.type = static_cast<int>(FrameType::kNack);
  nack.u = rewind;
  ASSERT_TRUE(SendControl(site.fd, nack));

  int64_t expected = m.u + wire::RunLength(m);
  for (;;) {
    ASSERT_TRUE(NextFrame(site.fd, &reassembler, &m));
    // A stale kFin, were the whole shard out before the rewind.
    if (m.type == static_cast<int>(FrameType::kFin)) continue;
    ASSERT_EQ(m.type, static_cast<int>(FrameType::kUpdate));
    if (m.u != expected) break;
    expected += wire::RunLength(m);
  }
  EXPECT_EQ(m.u, rewind);

  // From the rewind on, the frames carry the shard's tail bit for bit and
  // end with the kFin at the shard's end.
  int64_t seq = rewind;
  while (m.type == static_cast<int>(FrameType::kUpdate)) {
    ASSERT_EQ(m.u, seq);
    double values[wire::kMaxRunUpdates];
    const int count = wire::ExpandRun(m, values);
    ASSERT_GE(count, 1);
    for (int i = 0; i < count; ++i) {
      ASSERT_EQ(values[i], shard[static_cast<size_t>(seq + i)]) << seq + i;
    }
    seq += count;
    ASSERT_TRUE(NextFrame(site.fd, &reassembler, &m));
  }
  EXPECT_EQ(m.type, static_cast<int>(FrameType::kFin));
  EXPECT_EQ(m.u, static_cast<int64_t>(shard.size()));
  EXPECT_EQ(seq, static_cast<int64_t>(shard.size()));
  ReleaseChild(&site);
}

// A child frames nothing at or past its stop point: its last update frame
// ends there, a kFin announces it, and nothing follows.
TEST(SocketsRuntimeTest, ChildStopsAtItsStopPoint) {
  const std::vector<double> shard = streams::BernoulliStream(4096, 0.2, 95);
  SiteSpawnOptions spawn;
  spawn.shard = shard;
  spawn.resume_seq = 100;
  spawn.stop_seq = 1000;
  SiteProcess site = SpawnSiteProcess(spawn);
  wire::FrameReassembler reassembler;
  sim::Message m;
  int64_t seq = spawn.resume_seq;
  for (;;) {
    ASSERT_TRUE(NextFrame(site.fd, &reassembler, &m));
    if (m.type != static_cast<int>(FrameType::kUpdate)) break;
    ASSERT_EQ(m.u, seq);
    seq += wire::RunLength(m);
  }
  EXPECT_EQ(seq, spawn.stop_seq);
  EXPECT_EQ(m.type, static_cast<int>(FrameType::kFin));
  EXPECT_EQ(m.u, spawn.stop_seq);
  struct pollfd pfd;
  pfd.fd = site.fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  EXPECT_EQ(poll(&pfd, 1, 100), 0) << "the child sent past its kFin";
  EXPECT_EQ(reassembler.buffered_bytes(), 0u);
  ReleaseChild(&site);
}

TEST(SocketsRuntimeTest, RegistryGatesSocketsLikeThreads) {
  registry::RegisterBuiltinProtocols();
  EXPECT_TRUE(TransportSupports(TransportKind::kSockets, "counter"));
  EXPECT_TRUE(TransportSupports(TransportKind::kSim, "counter"));
}

}  // namespace
}  // namespace nmc::runtime
