// Protocol conformance suite: a battery of contracts every sim::Protocol
// in the library must satisfy, applied uniformly to every protocol in
// sim::ProtocolRegistry. This is what guarantees the benches can treat
// protocols interchangeably — and that anything newly registered is held
// to the same contracts automatically.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "registry/builtin.h"
#include "sim/assignment.h"
#include "sim/channel.h"
#include "sim/harness.h"
#include "sim/protocol.h"
#include "sim/registry.h"
#include "streams/bernoulli.h"

namespace nmc {
namespace {

/// Number of builtin protocols the suite is instantiated over. If this
/// fails, a protocol was (de)registered: update kBuiltinCount and the
/// Range below so the new protocol is covered.
constexpr size_t kBuiltinCount = 8;

struct ProtocolSpec {
  std::string name;
  sim::ProtocolTraits traits;
};

std::vector<ProtocolSpec> AllProtocols() {
  registry::RegisterBuiltinProtocols();
  const sim::ProtocolRegistry& registry = sim::ProtocolRegistry::Global();
  std::vector<ProtocolSpec> specs;
  for (const std::string& name : registry.Names()) {
    specs.push_back({name, *registry.Traits(name)});
  }
  return specs;
}

sim::ProtocolParams BaseParams(uint64_t seed) {
  sim::ProtocolParams params;
  params.epsilon = 0.2;
  params.horizon_n = 4096;
  params.delta = 1e-6;
  params.period = 8;
  params.seed = seed;
  return params;
}

std::unique_ptr<sim::Protocol> Make(const ProtocolSpec& spec, int k,
                                    uint64_t seed) {
  return sim::ProtocolRegistry::Global().Create(spec.name, k,
                                                BaseParams(seed));
}

std::vector<double> StreamFor(const ProtocolSpec& spec, int64_t n,
                              uint64_t seed) {
  if (spec.traits.monotonic_only) {
    return std::vector<double>(static_cast<size_t>(n), 1.0);
  }
  if (!spec.traits.general_values) {
    return streams::BernoulliStream(n, 0.3, seed);  // ±1 only
  }
  return streams::FractionalIidStream(n, 0.1, 0.9, seed);
}

/// Sites in [0, k) for n updates: runs of 1 to max_run updates, each at a
/// uniformly random site.
std::vector<int> RandomRuns(int64_t n, int k, int64_t max_run, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<int> sites;
  while (static_cast<int64_t>(sites.size()) < n) {
    const int site = static_cast<int>(rng.UniformInt(0, k - 1));
    const int64_t run = std::min<int64_t>(
        rng.UniformInt(1, max_run), n - static_cast<int64_t>(sites.size()));
    sites.insert(sites.end(), static_cast<size_t>(run), site);
  }
  return sites;
}

/// Random chunk lengths in [1, 300] that add up to n.
std::vector<int64_t> ChunkLengths(int64_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<int64_t> lengths;
  for (int64_t covered = 0; covered < n;) {
    lengths.push_back(std::min<int64_t>(rng.UniformInt(1, 300), n - covered));
    covered += lengths.back();
  }
  return lengths;
}

/// sites[begin, end) as ProcessChunk runs: each same-site stretch, also
/// cut at random points so that neighbours sometimes share a site.
std::vector<sim::SiteRun> RunsOf(const std::vector<int>& sites, int64_t begin,
                                 int64_t end, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<sim::SiteRun> runs;
  for (int64_t t = begin; t < end; ++t) {
    const int site = sites[static_cast<size_t>(t)];
    if (runs.empty() || runs.back().site != site ||
        rng.UniformInt(0, 7) == 0) {
      runs.push_back(sim::SiteRun{site, 0});
    }
    ++runs.back().length;
  }
  return runs;
}

class ConformanceTest : public ::testing::TestWithParam<size_t> {
 protected:
  ProtocolSpec spec() const { return AllProtocols()[GetParam()]; }
};

TEST(ConformanceRegistryTest, InstantiationCoversTheWholeRegistry) {
  EXPECT_EQ(AllProtocols().size(), kBuiltinCount)
      << "registry changed: update kBuiltinCount and the Range in the "
         "INSTANTIATE below";
}

TEST_P(ConformanceTest, ReportsNumSites) {
  const auto s = spec();
  for (int k : {1, 3, 16}) {
    auto protocol = Make(s, k, 1);
    EXPECT_EQ(protocol->num_sites(), k) << s.name;
  }
}

TEST_P(ConformanceTest, EstimateValidBeforeAnyUpdate) {
  const auto s = spec();
  auto protocol = Make(s, 2, 1);
  EXPECT_DOUBLE_EQ(protocol->Estimate(), 0.0) << s.name;
}

TEST_P(ConformanceTest, StatsMonotoneNondecreasing) {
  const auto s = spec();
  auto protocol = Make(s, 3, 2);
  const auto stream = StreamFor(s, 512, 3);
  int64_t previous = protocol->stats().total();
  for (int64_t t = 0; t < 512; ++t) {
    protocol->ProcessUpdate(static_cast<int>(t % 3),
                            stream[static_cast<size_t>(t)]);
    const int64_t now = protocol->stats().total();
    ASSERT_GE(now, previous) << s.name << " t=" << t;
    previous = now;
  }
}

TEST_P(ConformanceTest, DeterministicInSeed) {
  const auto s = spec();
  auto run = [&](uint64_t seed) {
    auto protocol = Make(s, 2, seed);
    const auto stream = StreamFor(s, 1024, 7);
    for (int64_t t = 0; t < 1024; ++t) {
      protocol->ProcessUpdate(static_cast<int>(t % 2),
                              stream[static_cast<size_t>(t)]);
    }
    return std::pair<double, int64_t>(protocol->Estimate(),
                                      protocol->stats().total());
  };
  EXPECT_EQ(run(42), run(42)) << s.name;
}

TEST_P(ConformanceTest, EstimateTracksTheSumLoosely) {
  // Conformance-level sanity (the tight guarantees are protocol-specific
  // tests): after a drifting run the estimate is within 25% of the truth
  // for every protocol except the intentionally broken baselines.
  const auto s = spec();
  if (s.name == "periodic_sync" || s.name == "two_monotonic") return;
  auto protocol = Make(s, 2, 5);
  const auto stream = StreamFor(s, 2048, 9);
  double sum = 0.0;
  for (int64_t t = 0; t < 2048; ++t) {
    const double v = stream[static_cast<size_t>(t)];
    protocol->ProcessUpdate(static_cast<int>(t % 2), v);
    sum += v;
  }
  EXPECT_NEAR(protocol->Estimate(), sum, 0.25 * std::fabs(sum) + 1.0)
      << s.name;
}

TEST_P(ConformanceTest, SurvivesAllAssignmentPolicies) {
  const auto s = spec();
  for (const char* psi_name : {"round_robin", "random", "single", "block",
                               "sign_split", "zero_crossing"}) {
    auto protocol = Make(s, 4, 11);
    auto psi = sim::MakeAssignment(psi_name, 4, 13);
    ASSERT_NE(psi, nullptr);
    const auto stream = StreamFor(s, 512, 15);
    for (int64_t t = 0; t < 512; ++t) {
      const double v = stream[static_cast<size_t>(t)];
      protocol->ProcessUpdate(psi->NextSite(t, v), v);
    }
    EXPECT_GE(protocol->stats().total(), 0) << s.name << "/" << psi_name;
  }
}

/// The ProcessBatch contract: feeding same-site runs through ProcessBatch
/// (honoring its consume-a-prefix return) must be bit-identical to feeding
/// the same updates one at a time — same estimates, same message counts.
TEST_P(ConformanceTest, ProcessBatchMatchesPerUpdateExecution) {
  const auto s = spec();
  auto per_update = Make(s, 3, 33);
  auto batched = Make(s, 3, 33);
  const auto stream = StreamFor(s, 1024, 21);
  constexpr int64_t kRun = 16;  // same-site run length
  for (int64_t base = 0; base < 1024; base += kRun) {
    const int site = static_cast<int>((base / kRun) % 3);
    for (int64_t t = base; t < base + kRun; ++t) {
      per_update->ProcessUpdate(site, stream[static_cast<size_t>(t)]);
    }
    std::span<const double> run(stream.data() + base,
                                static_cast<size_t>(kRun));
    while (!run.empty()) {
      const int64_t consumed = batched->ProcessBatch(site, run);
      ASSERT_GE(consumed, 1) << s.name;
      ASSERT_LE(consumed, static_cast<int64_t>(run.size())) << s.name;
      run = run.subspan(static_cast<size_t>(consumed));
    }
    ASSERT_EQ(per_update->Estimate(), batched->Estimate())
        << s.name << " after run ending at " << base + kRun;
  }
  EXPECT_EQ(per_update->stats().total(), batched->stats().total()) << s.name;
}

/// The ProcessChunk contract: feeding interleaved chunks through
/// ProcessChunk as same-site runs (honoring its consume-a-prefix report,
/// which must agree with the runs it was handed) must be bit-identical to
/// feeding the same updates one at a time. After every
/// call the estimate and the message counts equal a per-update twin's at
/// the same step, and the twin sent nothing and kept its estimate over the
/// call's silent prefix (every consumed update but the last).
TEST_P(ConformanceTest, ProcessChunkMatchesPerUpdateExecution) {
  const auto s = spec();
  constexpr int kSites = 4;
  constexpr int64_t kN = 3072;
  struct Step {
    double estimate;
    int64_t to_coordinator;
    int64_t to_sites;
    int64_t broadcasts;
  };
  const auto snapshot = [](const sim::Protocol& protocol) {
    const sim::MessageStats& stats = protocol.stats();
    return Step{protocol.Estimate(), stats.site_to_coordinator,
                stats.coordinator_to_site, stats.broadcasts};
  };
  const auto stream = StreamFor(s, kN, 23);
  // Uniform-random sites (every run of length 1 but for repeats) and
  // block runs of 1-80 updates.
  for (const int64_t max_run : {1, 80}) {
    SCOPED_TRACE(::testing::Message() << "max_run=" << max_run);
    const std::vector<int> sites = RandomRuns(kN, kSites, max_run, 41);
    const std::vector<int64_t> chunks = ChunkLengths(kN, 43);

    auto twin = Make(s, kSites, 35);
    std::vector<Step> steps = {snapshot(*twin)};  // steps[t]: after t updates
    for (int64_t t = 0; t < kN; ++t) {
      twin->ProcessUpdate(sites[static_cast<size_t>(t)],
                          stream[static_cast<size_t>(t)]);
      steps.push_back(snapshot(*twin));
    }

    auto chunked = Make(s, kSites, 35);
    int64_t pos = 0;
    for (const int64_t chunk : chunks) {
      const int64_t end = pos + chunk;
      std::vector<sim::SiteRun> runs =
          RunsOf(sites, pos, end, /*seed=*/static_cast<uint64_t>(47 + pos));
      size_t run = 0;  // the pump's cursor: runs[run] starts at pos
      while (pos < end) {
        const sim::ChunkStop stop = chunked->ProcessChunk(
            std::span<const sim::SiteRun>(runs).subspan(run),
            std::span<const double>(stream.data() + pos,
                                    static_cast<size_t>(end - pos)));
        const int64_t consumed = stop.consumed;
        ASSERT_GE(consumed, 1) << s.name;
        ASSERT_LE(consumed, end - pos) << s.name;
        // The reported stop agrees with the count consumed.
        ASSERT_LE(run + stop.run, runs.size()) << s.name;
        int64_t reported = stop.offset;
        for (size_t r = run; r < run + stop.run; ++r) {
          reported += runs[r].length;
        }
        ASSERT_EQ(reported, consumed) << s.name << " t=" << pos;
        run += stop.run;
        if (stop.offset > 0) {
          ASSERT_LT(run, runs.size()) << s.name;
          ASSERT_LT(stop.offset, runs[run].length) << s.name;
          runs[run].length -= stop.offset;
        }
        const Step& before = steps[static_cast<size_t>(pos)];
        for (int64_t t = pos + 1; t < pos + consumed; ++t) {
          const Step& silent = steps[static_cast<size_t>(t)];
          ASSERT_EQ(silent.to_coordinator + silent.to_sites,
                    before.to_coordinator + before.to_sites)
              << s.name << ": message before the prefix's last update, t="
              << t;
          ASSERT_EQ(std::bit_cast<uint64_t>(silent.estimate),
                    std::bit_cast<uint64_t>(before.estimate))
              << s.name << ": estimate moved in the silent prefix, t=" << t;
        }
        pos += consumed;
        const Step& want = steps[static_cast<size_t>(pos)];
        const Step got = snapshot(*chunked);
        ASSERT_EQ(std::bit_cast<uint64_t>(got.estimate),
                  std::bit_cast<uint64_t>(want.estimate))
            << s.name << " t=" << pos;
        ASSERT_EQ(got.to_coordinator, want.to_coordinator)
            << s.name << " t=" << pos;
        ASSERT_EQ(got.to_sites, want.to_sites) << s.name << " t=" << pos;
        ASSERT_EQ(got.broadcasts, want.broadcasts) << s.name << " t=" << pos;
      }
      ASSERT_EQ(run, runs.size()) << s.name;
    }
  }
}

/// Fault-machinery neutrality: a registered protocol built with an
/// explicit kPerfect channel config must behave exactly like the default,
/// and a zero-loss Bernoulli channel — the machinery fully installed, but
/// every verdict kDeliver — must be observationally identical update for
/// update.
TEST_P(ConformanceTest, PerfectChannelIsBitIdentical) {
  const auto s = spec();
  const auto trace = [&](const sim::ChannelConfig& channel) {
    sim::ProtocolParams params = BaseParams(77);
    params.channel = channel;
    auto protocol =
        sim::ProtocolRegistry::Global().Create(s.name, 2, params);
    const auto stream = StreamFor(s, 768, 19);
    std::vector<double> estimates;
    for (int64_t t = 0; t < 768; ++t) {
      protocol->ProcessUpdate(static_cast<int>(t % 2),
                              stream[static_cast<size_t>(t)]);
      estimates.push_back(protocol->Estimate());
    }
    return std::pair<std::vector<double>, int64_t>(std::move(estimates),
                                                   protocol->stats().total());
  };

  const auto baseline = trace(sim::ChannelConfig{});  // default: kPerfect
  sim::ChannelConfig explicit_perfect;
  explicit_perfect.kind = sim::ChannelConfig::Kind::kPerfect;
  const auto explicit_trace = trace(explicit_perfect);
  EXPECT_EQ(baseline.first, explicit_trace.first) << s.name;
  EXPECT_EQ(baseline.second, explicit_trace.second) << s.name;

  if (s.name == "horizon_free") return;  // rejects faulty channels by design
  sim::ChannelConfig zero_loss;
  zero_loss.kind = sim::ChannelConfig::Kind::kLoss;
  zero_loss.loss = 0.0;
  zero_loss.duplicate = 0.0;
  zero_loss.seed = 2;
  const auto lossless = trace(zero_loss);
  EXPECT_EQ(baseline.first, lossless.first)
      << s.name << ": installing a zero-loss channel changed behavior";
  EXPECT_EQ(baseline.second, lossless.second) << s.name;
}

/// Every field of two tracked runs matches bit for bit, curve included.
void ExpectSameRun(const sim::TrackingResult& a, const sim::TrackingResult& b) {
  const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.broadcasts, b.broadcasts);
  EXPECT_EQ(a.violation_steps, b.violation_steps);
  EXPECT_EQ(bits(a.max_rel_error), bits(b.max_rel_error));
  EXPECT_EQ(bits(a.final_sum), bits(b.final_sum));
  EXPECT_EQ(bits(a.final_estimate), bits(b.final_estimate));
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].t, b.curve[i].t) << i;
    EXPECT_EQ(a.curve[i].messages, b.curve[i].messages) << i;
    EXPECT_EQ(bits(a.curve[i].sum), bits(b.curve[i].sum)) << i;
    EXPECT_EQ(bits(a.curve[i].estimate), bits(b.curve[i].estimate)) << i;
  }
}

/// Delivery equivalence — the guard on the send-last contract
/// (sim/node.h). On the perfect channel the Network runs each handler
/// inside the send, depth-first; behind a zero-loss channel the same hops
/// go through the FIFO queue (and the protocol takes one update per call).
/// A protocol whose handlers finish their state changes before they send
/// gets the same run either way.
TEST_P(ConformanceTest, DepthFirstDeliveryMatchesFifoQueue) {
  const auto s = spec();
  if (s.name == "horizon_free") return;  // rejects faulty channels by design
  sim::ChannelConfig zero_loss;
  zero_loss.kind = sim::ChannelConfig::Kind::kLoss;
  zero_loss.loss = 0.0;
  zero_loss.duplicate = 0.0;
  const auto run = [&](int k, bool blocks, const std::vector<double>& stream,
                       const sim::ChannelConfig& channel) {
    sim::ProtocolParams params = BaseParams(91);
    params.channel = channel;
    auto protocol = sim::ProtocolRegistry::Global().Create(s.name, k, params);
    sim::RoundRobinAssignment round_robin(k);
    sim::BlockCyclicAssignment block_cyclic(k, 64);
    sim::TrackingOptions tracking;
    tracking.epsilon = params.epsilon;
    tracking.curve_points = 32;
    return sim::RunTracking(
        stream, blocks ? static_cast<sim::AssignmentPolicy*>(&block_cyclic)
                       : &round_robin,
        protocol.get(), tracking);
  };
  for (const int k : {1, 3, 8}) {
    for (const double mu : {0.0, 0.3, 1.0}) {
      if (s.traits.monotonic_only && mu != 1.0) continue;
      const auto stream = streams::BernoulliStream(4096, (1.0 + mu) / 2.0, 23);
      for (const bool blocks : {false, true}) {
        SCOPED_TRACE(s.name + " k=" + std::to_string(k) +
                     " mu=" + std::to_string(mu) +
                     (blocks ? " 64-blocks" : " round-robin"));
        ExpectSameRun(run(k, blocks, stream, sim::ChannelConfig{}),
                      run(k, blocks, stream, zero_loss));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ConformanceTest,
                         ::testing::Range<size_t>(0, kBuiltinCount),
                         [](const ::testing::TestParamInfo<size_t>& param) {
                           return AllProtocols()[param.param].name;
                         });

}  // namespace
}  // namespace nmc
