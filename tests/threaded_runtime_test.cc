#include "runtime/threaded.h"

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "registry/builtin.h"
#include "runtime/transport.h"
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
