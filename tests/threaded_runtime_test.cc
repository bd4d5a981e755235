#include "runtime/threaded.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "registry/builtin.h"
#include "runtime/transport.h"
#include "sim/assignment.h"
#include "sim/harness.h"
#include "sim/registry.h"
#include "streams/bernoulli.h"

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

TEST(TransportKindTest, ParseAndName) {
  TransportKind kind = TransportKind::kThreads;
  EXPECT_TRUE(ParseTransportKind("sim", &kind));
  EXPECT_EQ(kind, TransportKind::kSim);
  EXPECT_TRUE(ParseTransportKind("threads", &kind));
  EXPECT_EQ(kind, TransportKind::kThreads);
  EXPECT_FALSE(ParseTransportKind("simulate", &kind));
  EXPECT_EQ(kind, TransportKind::kThreads) << "failed parse must not write";
  EXPECT_STREQ(TransportKindName(TransportKind::kSim), "sim");
  EXPECT_STREQ(TransportKindName(TransportKind::kThreads), "threads");
}

TEST(ShardingTest, RoundRobinAndInterleaveAreInverse) {
  std::vector<double> stream;
  for (int i = 0; i < 23; ++i) stream.push_back(static_cast<double>(i));
  const std::vector<std::vector<double>> shards = ShardRoundRobin(stream, 4);
  ASSERT_EQ(shards.size(), 4u);
  EXPECT_EQ(shards[0].size(), 6u);
  EXPECT_EQ(shards[3].size(), 5u);
  EXPECT_EQ(shards[1][2], 9.0);  // t = 2*4 + 1
  EXPECT_EQ(InterleaveShards(shards), stream);
}

// Every (k, n) corner of the exact-size strided shard: n below, at and
// just past k, a ragged small n, and 2^20 + 3 doubles, which spans several
// 2 MiB pages and so takes the huge-page-advised path.
TEST(ShardingTest, ExactSizesStridedValuesAndInverseAcrossCorners) {
  for (const int k : {1, 2, 3, 8}) {
    const int64_t ks = k;
    for (const int64_t n :
         {int64_t{0}, int64_t{1}, ks - 1, ks, int64_t{23},
          (int64_t{1} << 20) + 3}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " n=" + std::to_string(n));
      // Distinct fractional values, so a misplaced entry cannot match.
      const std::vector<double> stream =
          streams::FractionalIidStream(n, 0.0, 1.0, 17);
      const std::vector<std::vector<double>> shards =
          ShardRoundRobin(stream, k);
      ASSERT_EQ(shards.size(), static_cast<size_t>(k));
      for (int64_t s = 0; s < ks; ++s) {
        const std::vector<double>& shard = shards[static_cast<size_t>(s)];
        const int64_t want = s >= n ? 0 : (n - s + ks - 1) / ks;
        ASSERT_EQ(static_cast<int64_t>(shard.size()), want) << "site " << s;
        for (size_t j = 0; j < shard.size(); ++j) {
          const size_t t = static_cast<size_t>(s) + j * static_cast<size_t>(k);
          ASSERT_EQ(std::bit_cast<uint64_t>(shard[j]),
                    std::bit_cast<uint64_t>(stream[t]))
              << "site " << s << " entry " << j;
        }
      }
      const std::vector<double> back = InterleaveShards(shards);
      ASSERT_EQ(back.size(), stream.size());
      for (size_t t = 0; t < stream.size(); ++t) {
        ASSERT_EQ(std::bit_cast<uint64_t>(back[t]),
                  std::bit_cast<uint64_t>(stream[t]))
            << "t=" << t;
      }
    }
  }
}

TEST(ThreadedRuntimeTest, ConsumesEveryUpdateAndPublishesFinalGeneration) {
  const int64_t n = 20000;
  const int k = 4;
  const std::vector<double> stream = streams::BernoulliStream(n, 0.0, 77);
  const std::vector<std::vector<double>> shards = ShardRoundRobin(stream, k);
  const std::unique_ptr<sim::Protocol> protocol = MakeCounter(k, n);
  ThreadedRunOptions options;
  options.num_readers = 4;
  const ThreadedRunResult result =
      RunThreaded(protocol.get(), shards, options);
  EXPECT_EQ(result.updates, n);
  EXPECT_EQ(result.final_published.generation, n);
  EXPECT_GE(result.publishes, 1);
  EXPECT_EQ(result.generation_regressions, 0);
  EXPECT_GE(result.total_reads, options.num_readers);
}

// The tentpole's correctness claim: with k site threads and m concurrent
// readers, a captured run replays bit-identically through the
// deterministic simulator — every published estimate and every reader
// snapshot is the oracle's value at its generation.
TEST(ThreadedRuntimeTest, CapturedRunIsLinearizableAgainstSimOracle) {
  const int64_t n = 16384;
  const int k = 4;
  const std::vector<double> stream = streams::BernoulliStream(n, 0.0, 91);
  const std::vector<std::vector<double>> shards = ShardRoundRobin(stream, k);
  const std::unique_ptr<sim::Protocol> protocol = MakeCounter(k, n);
  ThreadedRunOptions options;
  options.num_readers = 4;
  options.capture = true;
  const ThreadedRunResult result =
      RunThreaded(protocol.get(), shards, options);
  ASSERT_EQ(static_cast<int64_t>(result.transcript.size()), n);

  const std::unique_ptr<sim::Protocol> oracle = MakeCounter(k, n);
  const LinearizabilityReport report =
      CheckLinearizable(result, oracle.get());
  EXPECT_TRUE(report.linearizable) << report.failure;
  EXPECT_GE(report.publishes_checked, 1);
}

// A corrupted transcript (one update flipped) must be caught: the replayed
// trajectory diverges from some published estimate. Guards against the
// check silently accepting everything.
TEST(ThreadedRuntimeTest, LinearizabilityCheckDetectsCorruption) {
  const int64_t n = 4096;
  const int k = 2;
  const std::vector<double> stream = streams::BernoulliStream(n, 0.0, 13);
  const std::vector<std::vector<double>> shards = ShardRoundRobin(stream, k);
  const std::unique_ptr<sim::Protocol> protocol = MakeCounter(k, n);
  ThreadedRunOptions options;
  options.capture = true;
  ThreadedRunResult result = RunThreaded(protocol.get(), shards, options);
  // Flip the sign of an early consumed update: the oracle's trajectory
  // diverges by 2 from there on, so some later publish must mismatch.
  ASSERT_GT(result.transcript.size(), 16u);
  result.transcript[7].value = -result.transcript[7].value;
  const std::unique_ptr<sim::Protocol> oracle = MakeCounter(k, n);
  const LinearizabilityReport report =
      CheckLinearizable(result, oracle.get());
  EXPECT_FALSE(report.linearizable);
  EXPECT_FALSE(report.failure.empty());
}

// Shards of at least 32 times the 4096-slot mailbox per site keep the
// producers running into a full ring (the full-queue branch of every push
// path); the run must still consume everything.
TEST(ThreadedRuntimeTest, SurvivesTinyMailboxBackpressure) {
  const int k = 3;
  const int64_t n = int64_t{k} * 32 * 4096;
  const std::vector<double> stream = streams::BernoulliStream(n, 0.0, 29);
  const std::vector<std::vector<double>> shards = ShardRoundRobin(stream, k);
  const std::unique_ptr<sim::Protocol> protocol = MakeCounter(k, n);
  ThreadedRunOptions options;
  options.capture = true;
  const ThreadedRunResult result =
      RunThreaded(protocol.get(), shards, options);
  EXPECT_EQ(result.updates, n);
  const std::unique_ptr<sim::Protocol> oracle = MakeCounter(k, n);
  EXPECT_TRUE(CheckLinearizable(result, oracle.get()).linearizable);
}

TEST(ThreadedRuntimeTest, SingleSiteNoReadersDegeneratesToSequentialFeed) {
  const int64_t n = 4096;
  const std::vector<double> stream = streams::BernoulliStream(n, 0.0, 3);
  const std::vector<std::vector<double>> shards = ShardRoundRobin(stream, 1);
  const std::unique_ptr<sim::Protocol> protocol = MakeCounter(1, n);
  ThreadedRunOptions options;
  options.capture = true;
  const ThreadedRunResult result =
      RunThreaded(protocol.get(), shards, options);
  EXPECT_EQ(result.updates, n);
  // With one site the consumption order IS the stream order.
  for (size_t t = 0; t < result.transcript.size(); ++t) {
    ASSERT_EQ(result.transcript[t].site, 0);
    ASSERT_EQ(result.transcript[t].value, stream[t]);
  }
}

// The coordinator serves the sites in a fixed rotation of kTurnUpdates
// turns, so a run is a function of its shards: repeated runs, readers
// racing or not, send the same messages and end on the same estimate.
TEST(ThreadedRuntimeTest, FixedTurnsMakeRepeatedRunsIdentical) {
  const int64_t n = (int64_t{1} << 16) + 333;
  const int k = 3;
  const std::vector<double> stream = streams::BernoulliStream(n, 0.0, 53);
  const std::vector<std::vector<double>> shards = ShardRoundRobin(stream, k);
  int64_t first_messages = -1;
  double first_estimate = 0.0;
  for (int run = 0; run < 3; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    const std::unique_ptr<sim::Protocol> protocol = MakeCounter(k, n);
    ThreadedRunOptions options;
    options.num_readers = 1;
    const ThreadedRunResult result =
        RunThreaded(protocol.get(), shards, options);
    ASSERT_EQ(result.updates, n);
    const int64_t messages = protocol->stats().total();
    if (run == 0) {
      first_messages = messages;
      first_estimate = result.final_published.estimate;
      continue;
    }
    EXPECT_EQ(messages, first_messages);
    EXPECT_EQ(std::bit_cast<uint64_t>(result.final_published.estimate),
              std::bit_cast<uint64_t>(first_estimate));
  }
}

// The captured consumption order is the turn rotation: site 0's first
// kTurnUpdates updates, then site 1's, ..., then site 0's next turn, with
// each shard's last turn taking what is left of it.
TEST(ThreadedRuntimeTest, SitesTakeTurnsOfKTurnUpdatesInRotation) {
  const int k = 3;
  const int64_t n = 5 * k * kTurnUpdates + 1000;  // ragged last turns
  const std::vector<double> stream =
      streams::FractionalIidStream(n, 0.0, 1.0, 19);
  const std::vector<std::vector<double>> shards = ShardRoundRobin(stream, k);
  const std::unique_ptr<sim::Protocol> protocol = MakeCounter(k, n);
  ThreadedRunOptions options;
  options.capture = true;
  const ThreadedRunResult result =
      RunThreaded(protocol.get(), shards, options);
  ASSERT_EQ(static_cast<int64_t>(result.transcript.size()), n);

  std::vector<TranscriptEntry> want;
  std::vector<size_t> cursor(static_cast<size_t>(k), 0);
  while (static_cast<int64_t>(want.size()) < n) {
    for (int s = 0; s < k; ++s) {
      const std::vector<double>& shard = shards[static_cast<size_t>(s)];
      size_t& pos = cursor[static_cast<size_t>(s)];
      const size_t end =
          std::min(shard.size(), pos + static_cast<size_t>(kTurnUpdates));
      for (; pos < end; ++pos) want.push_back(TranscriptEntry{s, shard[pos]});
    }
  }
  for (size_t t = 0; t < want.size(); ++t) {
    ASSERT_EQ(result.transcript[t].site, want[t].site) << "update " << t;
    ASSERT_EQ(std::bit_cast<uint64_t>(result.transcript[t].value),
              std::bit_cast<uint64_t>(want[t].value))
        << "update " << t;
  }
}

// The threads backend's accuracy check: equality with a checked sim run.
// With every shard a whole number of turns, the threads coordinator's
// consumption order is the turn rotation, which is exactly the stream that
// BlockCyclicAssignment(k, kTurnUpdates) deals out. A protocol is a
// function of its consumption order, so every thread-safe protocol must
// send the same messages and end on the same estimate bits as on sim,
// where the tracking checker judges every step.
TEST(ThreadedRuntimeTest, EveryThreadSafeProtocolMatchesSimOnTheTurnOrder) {
  registry::RegisterBuiltinProtocols();
  const sim::ProtocolRegistry& registry = sim::ProtocolRegistry::Global();
  const int k = 3;
  const int64_t turns = 8;
  const int64_t per_site = turns * kTurnUpdates;
  const int64_t n = per_site * k;
  for (const std::string& name : registry.Names()) {
    if (!TransportSupports(TransportKind::kThreads, name)) continue;
    SCOPED_TRACE(name);
    // A drift of 0.2 takes the counter out of StraightSync into sampling.
    const std::vector<double> stream =
        registry.Traits(name)->monotonic_only
            ? std::vector<double>(static_cast<size_t>(n), 1.0)
            : streams::BernoulliStream(n, 0.2, 67);
    const std::vector<std::vector<double>> shards = ShardRoundRobin(stream, k);
    std::vector<double> turn_order;
    for (int64_t r = 0; r < turns; ++r) {
      for (const std::vector<double>& shard : shards) {
        const auto begin = shard.begin() + r * kTurnUpdates;
        turn_order.insert(turn_order.end(), begin, begin + kTurnUpdates);
      }
    }
    ASSERT_EQ(static_cast<int64_t>(turn_order.size()), n);

    const sim::ProtocolParams params = TestParams(n);
    const std::unique_ptr<sim::Protocol> threaded =
        registry.Create(name, k, params);
    const ThreadedRunResult run =
        RunThreaded(threaded.get(), shards, ThreadedRunOptions());
    ASSERT_EQ(run.updates, n);

    const std::unique_ptr<sim::Protocol> simulated =
        registry.Create(name, k, params);
    sim::BlockCyclicAssignment psi(k, kTurnUpdates);
    sim::TrackingOptions options;
    options.epsilon = params.epsilon;
    const sim::TrackingResult checked =
        sim::RunTracking(turn_order, &psi, simulated.get(), options);

    const sim::MessageStats& a = threaded->stats();
    const sim::MessageStats& b = simulated->stats();
    EXPECT_EQ(a.total(), checked.messages);
    EXPECT_EQ(a.site_to_coordinator, b.site_to_coordinator);
    EXPECT_EQ(a.coordinator_to_site, b.coordinator_to_site);
    EXPECT_EQ(a.broadcasts, b.broadcasts);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.delayed, b.delayed);
    EXPECT_EQ(a.duplicated, b.duplicated);
    EXPECT_EQ(a.arena_high_water_bytes, b.arena_high_water_bytes);
    EXPECT_EQ(std::bit_cast<uint64_t>(run.final_published.estimate),
              std::bit_cast<uint64_t>(checked.final_estimate));
    // The intentionally broken baselines promise no epsilon guarantee
    // (DESIGN.md §6); every other protocol must hold it at every step.
    if (name != "periodic_sync" && name != "two_monotonic") {
      EXPECT_EQ(checked.violation_steps, 0);
    }
  }
}

class TrivialSumProtocol : public sim::Protocol {
 public:
  explicit TrivialSumProtocol(int num_sites) : num_sites_(num_sites) {}
  int num_sites() const override { return num_sites_; }
  void ProcessUpdate(int, double value) override { sum_ += value; }
  double Estimate() const override { return sum_; }
  const sim::MessageStats& stats() const override { return stats_; }

 private:
  int num_sites_;
  double sum_ = 0.0;
  sim::MessageStats stats_;
};

TEST(TransportSupportsTest, ThreadSafeTraitGatesTheThreadedBackend) {
  registry::RegisterBuiltinProtocols();
  sim::ProtocolRegistry& registry = sim::ProtocolRegistry::Global();

  // Builtins default to thread_safe and run on both backends.
  EXPECT_TRUE(TransportSupports(TransportKind::kSim, "counter"));
  EXPECT_TRUE(TransportSupports(TransportKind::kThreads, "counter"));
  EXPECT_FALSE(TransportSupports(TransportKind::kSim, "no_such_protocol"));
  EXPECT_FALSE(TransportSupports(TransportKind::kThreads, "no_such_protocol"));

  // A protocol that declares itself sim-only is quarantined from threads.
  sim::ProtocolTraits hostile;
  hostile.thread_safe = false;
  registry.Register(
      "test_sim_only_protocol", hostile,
      [](int num_sites, const sim::ProtocolParams&) {
        return std::make_unique<TrivialSumProtocol>(num_sites);
      });
  EXPECT_TRUE(TransportSupports(TransportKind::kSim, "test_sim_only_protocol"));
  EXPECT_FALSE(
      TransportSupports(TransportKind::kThreads, "test_sim_only_protocol"));

  // CreateForTransport builds it for the sim backend.
  const std::unique_ptr<sim::Protocol> protocol = CreateForTransport(
      TransportKind::kSim, "test_sim_only_protocol", 2, TestParams(128));
  EXPECT_EQ(protocol->num_sites(), 2);
}

TEST(CreateForTransportTest, BuildsRegisteredProtocolForThreads) {
  registry::RegisterBuiltinProtocols();
  const std::unique_ptr<sim::Protocol> protocol = CreateForTransport(
      TransportKind::kThreads, "counter", 3, TestParams(1024));
  ASSERT_NE(protocol, nullptr);
  EXPECT_EQ(protocol->num_sites(), 3);
}

}  // namespace
}  // namespace nmc::runtime
