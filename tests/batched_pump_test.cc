// The ProcessBatch contract in one suite: for any stream slicing the
// batched pump must reproduce the per-update pump bit for bit — same
// messages, same violations, same curve.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/exact_sync.h"
#include "common/simd_dispatch.h"
#include "core/nonmonotonic_counter.h"
#include "hyz/hyz_counter.h"
#include "registry/builtin.h"
#include "sim/assignment.h"
#include "sim/channel.h"
#include "sim/harness.h"
#include "sim/registry.h"
#include "streams/adversarial.h"
#include "streams/bernoulli.h"
#include "test_util.h"

namespace nmc {
namespace {

using testing::ExpectSameResult;

// Every assignment policy. Under round_robin every run has length 1; the
// others also produce multi-update same-site runs (block: 64 long, so batch
// sizes 7, 97 and 256 cut runs at chunk edges; single: the whole chunk),
// which the pump must split into chunk-local runs without observable effect.
constexpr const char* kPolicyNames[] = {"round_robin", "random",
                                        "single",      "block",
                                        "sign_split",  "zero_crossing"};

sim::TrackingResult RunCounterBatched(
    const std::vector<double>& stream, int num_sites,
    const core::CounterOptions& options, int batch_size,
    const char* policy = "round_robin",
    core::CounterDiagnostics* diagnostics = nullptr) {
  core::NonMonotonicCounter counter(num_sites, options);
  auto psi = sim::MakeAssignment(policy, num_sites, /*seed=*/13);
  sim::TrackingOptions tracking;
  tracking.epsilon = options.epsilon;
  tracking.curve_points = 16;
  tracking.batch_size = batch_size;
  sim::TrackingResult result =
      sim::RunTracking(stream, psi.get(), &counter, tracking);
  if (diagnostics != nullptr) *diagnostics = counter.diagnostics();
  return result;
}

// ---- Counter: batch size is unobservable ---------------------------------

// k > 1 in Phase 1 on the perfect channel runs the counter's ProcessChunk
// override; k = 1 (one run per chunk), Phase 2 (counter_drift past its
// switch) and a lossy channel fall back to the default ProcessChunk.
TEST(BatchedPumpTest, CounterBitIdenticalAcrossBatchSizes) {
  const int64_t n = 1 << 13;
  const auto stream = streams::BernoulliStream(n, 0.5, 91);
  // GPSearch resolves a 0.9 drift at its first checkpoint (t ~ 2k).
  const auto steep = streams::BernoulliStream(n, 0.9, 91);
  const core::CounterOptions plain = testing::DefaultOptions(n, 0.2, 404);
  core::CounterOptions drift = plain;
  drift.drift_mode = core::DriftMode::kUnknownUnitDrift;
  core::CounterOptions lossy = plain;
  lossy.channel.kind = sim::ChannelConfig::Kind::kLoss;
  lossy.channel.loss = 0.05;
  lossy.channel.duplicate = 0.02;
  lossy.channel.seed = 7;
  struct Case {
    const char* name;
    int num_sites;
    const core::CounterOptions* options;
    const std::vector<double>* stream;
  };
  for (const Case& c :
       {Case{"plain", 1, &plain, &stream}, Case{"plain", 4, &plain, &stream},
        Case{"plain", 8, &plain, &stream}, Case{"drift", 4, &drift, &steep},
        Case{"lossy", 4, &lossy, &stream}}) {
    for (const char* policy : kPolicyNames) {
      core::CounterDiagnostics diagnostics;
      const auto reference = RunCounterBatched(
          *c.stream, c.num_sites, *c.options, 1, policy, &diagnostics);
      if (c.options == &drift) {
        // Most of the run must be in Phase 2 for the sweep to cover it.
        ASSERT_TRUE(diagnostics.phase2_active) << policy;
        ASSERT_LT(diagnostics.phase2_switch_time, n / 2) << policy;
      }
      for (int batch : {7, 64, 97, 256, 1 << 14}) {
        SCOPED_TRACE(::testing::Message()
                     << c.name << " sites=" << c.num_sites << " " << policy
                     << " batch=" << batch);
        ExpectSameResult(reference,
                         RunCounterBatched(*c.stream, c.num_sites, *c.options,
                                           batch, policy));
      }
    }
  }
}

// ---- Out-of-range sites abort on every path ------------------------------

// Round-robin, except update 37 goes to the nonexistent site k.
class OutOfRangeAssignment final : public sim::AssignmentPolicy {
 public:
  explicit OutOfRangeAssignment(int num_sites) : num_sites_(num_sites) {}
  size_t Assign(int64_t t0, std::span<const double> values,
                std::span<sim::SiteRun> runs) override {
    for (size_t i = 0; i < values.size(); ++i) {
      const int64_t t = t0 + static_cast<int64_t>(i);
      runs[i] = sim::SiteRun{
          t == 37 ? num_sites_ : static_cast<int>(t % num_sites_), 1};
    }
    return values.size();
  }

 private:
  int num_sites_;
};

TEST(BatchedPumpDeathTest, PsiReturningSiteKAborts) {
  const auto stream = streams::BernoulliStream(256, 0.5, 5);
  sim::TrackingOptions tracking;
  tracking.epsilon = 0.2;
  // The counter's ProcessChunk override (Phase 1, perfect channel, k > 1).
  EXPECT_DEATH(
      {
        core::NonMonotonicCounter counter(
            4, testing::DefaultOptions(256, 0.2, 3));
        OutOfRangeAssignment psi(4);
        sim::RunTracking(stream, &psi, &counter, tracking);
      },
      "nonmonotonic_counter\\.cc:[0-9]+: site_id < num_sites");
  // The default ProcessChunk.
  EXPECT_DEATH(
      {
        baselines::ExactSyncProtocol protocol(4);
        OutOfRangeAssignment psi(4);
        sim::RunTracking(stream, &psi, &protocol, tracking);
      },
      "protocol\\.h:[0-9]+: site < num_sites\\(\\)");
}

TEST(BatchedPumpDeathTest, NegativeRunSiteAborts) {
  // ProcessChunk called directly, with a leading run at site -1.
  const std::vector<double> values(8, 1.0);
  const sim::SiteRun runs[] = {{-1, 3}, {0, 5}};
  EXPECT_DEATH(
      {
        core::NonMonotonicCounter counter(
            4, testing::DefaultOptions(256, 0.2, 3));
        counter.ProcessChunk(runs, values);
      },
      "nonmonotonic_counter\\.cc:[0-9]+: site_id >= 0");
  EXPECT_DEATH(
      {
        baselines::ExactSyncProtocol protocol(4);
        protocol.ProcessChunk(runs, values);
      },
      "protocol\\.h:[0-9]+: site >= 0");
}

// ---- Every pump-driven protocol: batch size is unobservable --------------

TEST(BatchedPumpTest, RegisteredProtocolsBitIdenticalAcrossBatchSizes) {
  // The counter walks psi's runs in its own ProcessChunk; HYZ and the
  // baselines take the default, one run (or what is left of it) per call.
  registry::RegisterBuiltinProtocols();
  const sim::ProtocolRegistry& registry = sim::ProtocolRegistry::Global();
  const int64_t n = 1 << 12;
  sim::ProtocolParams params;
  params.epsilon = 0.2;
  params.horizon_n = n;
  params.seed = 71;
  sim::TrackingOptions tracking;
  tracking.epsilon = 1.0;  // HYZ and the baselines promise less; be lax
  for (const char* name :
       {"counter", "hyz", "exact_sync", "periodic_sync", "two_monotonic"}) {
    const sim::ProtocolTraits traits = *registry.Traits(name);
    const std::vector<double> stream =
        traits.monotonic_only ? std::vector<double>(static_cast<size_t>(n), 1.0)
                              : streams::BernoulliStream(n, 0.1, 72);
    for (const char* policy :
         {"round_robin", "block", "random", "sign_split", "zero_crossing"}) {
      for (const bool curve : {false, true}) {
        tracking.curve_points = curve ? 16 : 0;
        const auto run = [&](int batch) {
          std::unique_ptr<sim::Protocol> protocol =
              registry.Create(name, 4, params);
          auto psi = sim::MakeAssignment(policy, 4, /*seed=*/13);
          tracking.batch_size = batch;
          return sim::RunTracking(stream, psi.get(), protocol.get(), tracking);
        };
        const sim::TrackingResult reference = run(1);
        EXPECT_GT(reference.messages, 0) << name << " " << policy;
        for (int batch : {7, 64, 256, 1000}) {
          SCOPED_TRACE(::testing::Message() << name << " " << policy
                                            << " curve=" << curve
                                            << " batch=" << batch);
          ExpectSameResult(reference, run(batch));
        }
      }
    }
  }
}

TEST(BatchedPumpTest, CounterBitIdenticalOnAdversarialStream) {
  // Sawtooth keeps |S| crossing zero, so the batched invariant check runs
  // in the regime where the estimate matters most and chunks restart
  // constantly.
  const int64_t n = 1 << 12;
  core::CounterOptions options = testing::DefaultOptions(n, 0.25, 77);
  const auto stream = streams::SawtoothStream(n, 100);
  const auto reference = RunCounterBatched(stream, 2, options, 1);
  ExpectSameResult(reference, RunCounterBatched(stream, 2, options, 64));
}

TEST(BatchedPumpTest, CounterPhase2BatchMatchesPerUpdate) {
  const int64_t n = 1 << 13;
  core::CounterOptions options = testing::DefaultOptions(n, 0.2, 505);
  options.drift_mode = core::DriftMode::kUnknownUnitDrift;
  const std::vector<double> stream(static_cast<size_t>(n), 1.0);  // mu = 1
  const auto reference = RunCounterBatched(stream, 4, options, 1);
  const auto batched = RunCounterBatched(stream, 4, options, 512);
  ExpectSameResult(reference, batched);
}

// ---- SIMD dispatch is unobservable in results ----------------------------

TEST(BatchedPumpTest, CounterBitIdenticalAcrossSimdLevels) {
  // The vector kernels are bit-identical to the scalar oracle, so a full
  // tracking run — stream generation, sampler feed, pump fast paths — must
  // produce identical TrackingResults whichever level dispatch picks.
  const int64_t n = 1 << 13;
  const core::CounterOptions options = testing::DefaultOptions(n, 0.2, 909);
  ASSERT_TRUE(common::ForceSimdLevel(common::SimdLevel::kScalar));
  const auto stream = streams::BernoulliStream(n, 0.5, 92);
  const auto reference = RunCounterBatched(stream, 4, options, 64);
  common::ResetSimdLevel();
  for (const auto level : {common::SimdLevel::kAvx2}) {
    if (!common::SimdLevelAvailable(level)) continue;
    SCOPED_TRACE(::testing::Message()
                 << "level=" << common::SimdLevelName(level));
    ASSERT_TRUE(common::ForceSimdLevel(level));
    const auto vec_stream = streams::BernoulliStream(n, 0.5, 92);
    EXPECT_EQ(vec_stream, stream);  // generator itself is level-blind
    ExpectSameResult(reference, RunCounterBatched(vec_stream, 4, options, 64));
    common::ResetSimdLevel();
  }
}

// ---- HYZ: batch and run forms --------------------------------------------

TEST(BatchedPumpTest, HyzBitIdenticalAcrossBatchSizes) {
  const int64_t n = 1 << 13;
  const std::vector<double> stream(static_cast<size_t>(n), 1.0);
  for (const auto mode : {hyz::HyzMode::kSampled, hyz::HyzMode::kDeterministic}) {
    hyz::HyzOptions options;
    options.mode = mode;
    options.epsilon = 0.1;
    options.delta = 1e-6;
    options.seed = 606;
    sim::TrackingOptions tracking;
    tracking.epsilon = 1.0;  // HYZ promises eps only per round; be lax
    tracking.curve_points = 16;
    const auto run = [&](const char* policy, int batch) {
      hyz::HyzProtocol protocol(3, options);
      auto psi = sim::MakeAssignment(policy, 3, /*seed=*/13);
      tracking.batch_size = batch;
      return sim::RunTracking(stream, psi.get(), &protocol, tracking);
    };
    for (const char* policy : kPolicyNames) {
      const auto reference = run(policy, 1);
      for (int batch : {7, 64, 97, 256}) {
        SCOPED_TRACE(::testing::Message() << "mode=" << static_cast<int>(mode)
                                          << " " << policy
                                          << " batch=" << batch);
        ExpectSameResult(reference, run(policy, batch));
      }
    }
  }
}

// ---- Default ProcessBatch (protocols without a fast path) ----------------

TEST(BatchedPumpTest, DefaultProcessBatchConsumesOneUpdate) {
  const auto stream = streams::BernoulliStream(1 << 12, 0.0, 17);
  sim::TrackingOptions tracking;
  tracking.epsilon = 0.1;
  sim::RoundRobinAssignment psi1(3), psi2(3);
  baselines::ExactSyncProtocol per_update(3);
  baselines::ExactSyncProtocol batched(3);
  tracking.batch_size = 1;
  const auto a = sim::RunTracking(stream, &psi1, &per_update, tracking);
  tracking.batch_size = 256;
  const auto b = sim::RunTracking(stream, &psi2, &batched, tracking);
  ExpectSameResult(a, b);
  EXPECT_EQ(a.messages, a.n);  // ExactSync really saw every update
}

}  // namespace
}  // namespace nmc
