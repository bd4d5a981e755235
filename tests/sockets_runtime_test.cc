// End-to-end tests of the sockets transport: forked site processes, the
// framed wire, the go-back-N reliable link, and the fault twins (socket
// loss, SIGKILL). Everything here runs real fork/socketpair machinery, so
// the assertions are about contracts (bit-identical replay, zero leaks of
// children or fds) rather than timing.

#include "runtime/sockets.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>
#include <sys/socket.h>
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

// The echo path sends with one attempt. On a socket whose buffer is full
// that attempt must fail at once with nothing written (no 1 ms wait, no
// torn frame), so the peer only ever reads whole frames.
TEST(SocketsRuntimeTest, OneAttemptSendControlOnFullSocketWritesNothing) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  BoundSocketBuffers(fds[0]);
  BoundSocketBuffers(fds[1]);
  ASSERT_TRUE(SetNonBlocking(fds[0]));
  ASSERT_TRUE(SetNonBlocking(fds[1]));

  sim::Message echo;
  echo.type = static_cast<int>(FrameType::kEcho);
  int64_t accepted = 0;
  for (;;) {
    echo.u = accepted;
    if (!SendControl(fds[0], echo, 1)) break;
    ++accepted;
    ASSERT_LT(accepted, int64_t{1} << 20) << "the buffer never filled";
  }
  EXPECT_GT(accepted, 0);

  constexpr int kRefused = 500;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRefused; ++i) {
    echo.u = accepted + i;
    EXPECT_FALSE(SendControl(fds[0], echo, 1));
  }
  const auto waited = std::chrono::steady_clock::now() - start;
  // A 1 ms wait per refused try would take at least 500 ms.
  EXPECT_LT(waited, std::chrono::milliseconds(kRefused / 2));

  wire::FrameReassembler reassembler;
  for (;;) {
    const ssize_t got = recv(fds[1], reassembler.Reserve(4096), 4096, 0);
    if (got <= 0) break;
    reassembler.Commit(static_cast<size_t>(got));
  }
  int64_t frames = 0;
  sim::Message out;
  while (reassembler.Next(&out) == wire::DecodeStatus::kOk) {
    EXPECT_EQ(out.type, static_cast<int>(FrameType::kEcho));
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
  EXPECT_GE(result.stats.frames, n);  // n updates + k FINs at least
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
  EXPECT_GT(result.stats.duplicate_updates, 0)
      << "rewind retransmissions necessarily overlap";
  EXPECT_FALSE(result.stats.timed_out);
}

TEST(SocketsRuntimeTest, TcpLoopbackCarriesTheSameRun) {
  const int64_t n = 4096;
  const int k = 3;
  const auto shards = TestShards(n, k, 94);
  const auto protocol = MakeCounter(k, n);
  SocketRunOptions options;
  options.use_tcp = true;
  const SocketRunResult result = RunSockets(protocol.get(), shards, options);
  EXPECT_EQ(result.serving.updates, n);
  EXPECT_EQ(result.stats.unexpected_exits, 0);
  EXPECT_EQ(result.stats.children_reaped, k);
  EXPECT_FALSE(result.stats.timed_out);
}

#if !NMC_TSAN

// The most a site can have sent or framed beyond what the coordinator has
// consumed: the socket's kernel buffer (2 × window, since Linux doubles the
// request) plus the child's one framed batch, which process.cc asserts
// fits in a window.
constexpr int64_t kInFlightFrames =
    static_cast<int64_t>(3 * kSocketWindowBytes / wire::kFrameBytes);

// A kill test means something only if the victim is still streaming when
// the kill lands: its shard tail past the kill point must exceed the
// in-flight bound, or the whole shard could have left before the SIGKILL.
void ExpectKillsLandMidShard(const std::vector<std::vector<double>>& shards,
                             const SocketFaultOptions& faults) {
  for (const SiteKillSpec& kill : faults.kills) {
    const int64_t tail =
        static_cast<int64_t>(shards[static_cast<size_t>(kill.site)].size()) -
        kill.after_consumed;
    EXPECT_GT(tail, kInFlightFrames)
        << "site " << kill.site << " could finish before its kill lands";
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

// The counter consumes long ProcessBatch runs, which the coordinator ends
// at each kill threshold. The killed sites' replacements must finish the
// shards, and the captured run must still replay bit-identically.
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
  EXPECT_LT(result.serving.updates, n) << "the dead site's tail is gone";
  EXPECT_EQ(result.stats.children_reaped, k);
  EXPECT_FALSE(result.stats.timed_out);
}

#endif  // !NMC_TSAN

TEST(SocketsRuntimeTest, RegistryGatesSocketsLikeThreads) {
  registry::RegisterBuiltinProtocols();
  EXPECT_TRUE(TransportSupports(TransportKind::kSockets, "counter"));
  EXPECT_TRUE(TransportSupports(TransportKind::kSim, "counter"));
}

}  // namespace
}  // namespace nmc::runtime
