// Tests for the library's extensions beyond the paper's literal algorithm:
// the horizon-free doubling wrapper, variance-adaptive sampling, and the
// deterministic HYZ variant.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/horizon_free.h"
#include "core/nonmonotonic_counter.h"
#include "hyz/hyz_counter.h"
#include "sim/assignment.h"
#include "sim/harness.h"
#include "streams/bernoulli.h"
#include "streams/permutation.h"
#include "test_util.h"

namespace nmc {
namespace {

using nmc::testing::DefaultOptions;

// ---------------------------------------------------------------------------
// HorizonFreeCounter
// ---------------------------------------------------------------------------

sim::TrackingResult RunHorizonFree(const std::vector<double>& stream, int k,
                                   double epsilon, uint64_t seed,
                                   core::HorizonFreeCounter* out_counter_state
                                   [[maybe_unused]] = nullptr) {
  core::HorizonFreeOptions options;
  options.counter.epsilon = epsilon;
  options.counter.seed = seed;
  core::HorizonFreeCounter counter(k, options);
  sim::RoundRobinAssignment psi(k);
  sim::TrackingOptions tracking;
  tracking.epsilon = epsilon;
  return sim::RunTracking(stream, &psi, &counter, tracking);
}

TEST(HorizonFreeTest, TracksWithoutKnowingN) {
  const int64_t n = 100000;  // not a power of the growth factor
  const auto stream = streams::BernoulliStream(n, 0.0, 1);
  for (int k : {1, 4}) {
    const auto result = RunHorizonFree(stream, k, 0.1, 2);
    EXPECT_EQ(result.violation_steps, 0) << "k=" << k;
    EXPECT_NEAR(result.final_estimate, result.final_sum,
                0.1 * std::fabs(result.final_sum) + 1e-9);
  }
}

TEST(HorizonFreeTest, EpochsGrowGeometrically) {
  const int64_t n = 1 << 17;
  const auto stream = streams::BernoulliStream(n, 0.0, 3);
  core::HorizonFreeOptions options;
  options.counter.epsilon = 0.2;
  options.counter.seed = 4;
  options.initial_horizon = 1024;
  core::HorizonFreeCounter counter(4, options);
  sim::RoundRobinAssignment psi(4);
  sim::TrackingOptions tracking;
  tracking.epsilon = 0.2;
  const auto result = sim::RunTracking(stream, &psi, &counter, tracking);
  EXPECT_EQ(result.violation_steps, 0);
  // 1024 * 4^e >= 2^17 -> e = 4 restarts; horizon now covers the stream.
  static_assert(core::HorizonFreeCounter::kGrowthFactor == 4);
  EXPECT_EQ(counter.epochs(), 4);
  EXPECT_GE(counter.current_horizon(), n);
}

TEST(HorizonFreeTest, EstimateContinuousAcrossRestarts) {
  // The estimate must not jump at a restart boundary: feed a monotone-ish
  // stream and check the estimate right before/after the first restart.
  core::HorizonFreeOptions options;
  options.counter.epsilon = 0.1;
  options.counter.seed = 5;
  options.initial_horizon = 256;
  core::HorizonFreeCounter counter(2, options);
  double sum = 0.0;
  common::Rng rng(6);
  for (int64_t t = 0; t < 1000; ++t) {
    const double v = rng.Sign(0.7);
    counter.ProcessUpdate(static_cast<int>(t % 2), v);
    sum += v;
    ASSERT_NEAR(counter.Estimate(), sum, 0.1 * std::fabs(sum) + 1e-9)
        << "t=" << t;
  }
  EXPECT_GE(counter.epochs(), 1);
}

TEST(HorizonFreeTest, CostComparableToKnownHorizon) {
  const int64_t n = 1 << 17;
  const auto stream = streams::RandomlyPermuted(
      streams::SignMultiset(n, 0.5), 7);
  const auto hf = RunHorizonFree(stream, 1, 0.25, 8);
  const auto known =
      nmc::testing::RunCounter(stream, 1, DefaultOptions(n, 0.25, 8));
  EXPECT_EQ(hf.violation_steps, 0);
  EXPECT_EQ(known.violation_steps, 0);
  // The doubling trick costs a constant factor, not an order of magnitude.
  EXPECT_LT(hf.messages, 4 * known.messages + 1000);
}

TEST(HorizonFreeDeathTest, RejectsDriftMode) {
  core::HorizonFreeOptions options;
  options.counter.drift_mode = core::DriftMode::kUnknownUnitDrift;
  EXPECT_DEATH(core::HorizonFreeCounter(2, options), "NMC_CHECK");
}

// ---------------------------------------------------------------------------
// ForceSync
// ---------------------------------------------------------------------------

TEST(ForceSyncTest, MakesCoordinatorExactInSbcStage) {
  const int64_t n = 4096;
  core::CounterOptions options = DefaultOptions(n, 0.25, 9);
  core::NonMonotonicCounter counter(4, options);
  sim::RoundRobinAssignment psi(4);
  // Drive |S| up so the counter enters SBC (estimate goes stale).
  double sum = 0.0;
  common::Rng rng(10);
  for (int64_t t = 0; t < n; ++t) {
    const double v = rng.Sign(0.9);
    counter.ProcessUpdate(psi.NextSite(t, v), v);
    sum += v;
  }
  ASSERT_TRUE(counter.diagnostics().in_sbc_stage);
  counter.ForceSync();
  EXPECT_DOUBLE_EQ(counter.Estimate(), sum);
  EXPECT_EQ(counter.SyncedUpdates(), n);
}

TEST(ForceSyncTest, FreeInStraightStage) {
  core::CounterOptions options = DefaultOptions(1000, 0.1, 11);
  core::NonMonotonicCounter counter(4, options);
  counter.ProcessUpdate(0, 1.0);
  counter.ProcessUpdate(1, -1.0);
  const int64_t before = counter.stats().total();
  counter.ForceSync();  // StraightSync keeps the coordinator exact already
  EXPECT_EQ(counter.stats().total(), before);
  EXPECT_DOUBLE_EQ(counter.Estimate(), 0.0);
}

// ---------------------------------------------------------------------------
// Variance-adaptive sampling
// ---------------------------------------------------------------------------

TEST(VarianceAdaptiveTest, NoEffectOnUnitStreams) {
  const int64_t n = 1 << 14;
  const auto stream = streams::BernoulliStream(n, 0.0, 13);
  core::CounterOptions plain = DefaultOptions(n, 0.1, 14);
  core::CounterOptions adaptive = plain;
  adaptive.variance_adaptive = true;
  const auto r_plain = nmc::testing::RunCounter(stream, 2, plain);
  const auto r_adaptive = nmc::testing::RunCounter(stream, 2, adaptive);
  EXPECT_EQ(r_plain.violation_steps, 0);
  EXPECT_EQ(r_adaptive.violation_steps, 0);
  // Mean square is 1, the 2x margin clamps to 1: identical behavior.
  EXPECT_EQ(r_plain.messages, r_adaptive.messages);
}

TEST(VarianceAdaptiveTest, RestoresSublinearityOnSmallValues) {
  // The E4 finding: a permuted multiset of tiny ±0.05 values pins the
  // unscaled law at rate ~1 (Theta(n) cost); the adaptive law prices the
  // slower diffusion correctly.
  const int64_t n = 1 << 16;
  std::vector<double> multiset(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    multiset[static_cast<size_t>(i)] = (i % 2 == 0) ? 0.05 : -0.05;
  }
  const auto stream = streams::RandomlyPermuted(multiset, 15);
  core::CounterOptions plain = DefaultOptions(n, 0.25, 16);
  core::CounterOptions adaptive = plain;
  adaptive.variance_adaptive = true;
  const auto r_plain = nmc::testing::RunCounter(stream, 1, plain);
  const auto r_adaptive = nmc::testing::RunCounter(stream, 1, adaptive);
  EXPECT_EQ(r_plain.violation_steps, 0);
  EXPECT_EQ(r_adaptive.violation_steps, 0);
  // The plain law is pinned at 1 msg/update; the adaptive law prices the
  // 400x-slower diffusion and escapes the rate-1 band (the 2x safety
  // margin in the scale keeps the savings below the ideal factor).
  EXPECT_EQ(r_plain.messages, n);
  EXPECT_LT(static_cast<double>(r_adaptive.messages),
            0.6 * static_cast<double>(r_plain.messages));
}

TEST(VarianceAdaptiveTest, CorrectAcrossScales) {
  const int64_t n = 1 << 14;
  for (double scale : {1.0, 0.3, 0.05}) {
    std::vector<double> multiset(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      multiset[static_cast<size_t>(i)] = (i % 2 == 0) ? scale : -scale;
    }
    const auto stream = streams::RandomlyPermuted(multiset, 17);
    core::CounterOptions options = DefaultOptions(n, 0.1, 18);
    options.variance_adaptive = true;
    for (int k : {1, 4}) {
      const auto result = nmc::testing::RunCounter(stream, k, options);
      EXPECT_EQ(result.violation_steps, 0)
          << "scale=" << scale << " k=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Deterministic HYZ
// ---------------------------------------------------------------------------

hyz::HyzOptions DeterministicOptions(double epsilon, uint64_t seed) {
  hyz::HyzOptions options;
  options.mode = hyz::HyzMode::kDeterministic;
  options.epsilon = epsilon;
  options.seed = seed;
  return options;
}

TEST(HyzDeterministicTest, NeverViolates) {
  // The deterministic residual bound is a certainty, not a probability:
  // zero violations for every k and seed.
  const int64_t n = 30000;
  const std::vector<double> stream(static_cast<size_t>(n), 1.0);
  for (int k : {1, 4, 16}) {
    hyz::HyzProtocol counter(k, DeterministicOptions(0.1, 19));
    sim::RoundRobinAssignment psi(k);
    sim::TrackingOptions tracking;
    tracking.epsilon = 0.1;
    const auto result = sim::RunTracking(stream, &psi, &counter, tracking);
    EXPECT_EQ(result.violation_steps, 0) << "k=" << k;
  }
}

TEST(HyzDeterministicTest, EstimateNeverOvershoots) {
  // Residuals are one-sided: the estimate can lag but never exceed the
  // true count.
  hyz::HyzProtocol counter(4, DeterministicOptions(0.2, 21));
  sim::RoundRobinAssignment psi(4);
  for (int64_t t = 0; t < 20000; ++t) {
    counter.ProcessUpdate(psi.NextSite(t, 1.0), 1.0);
    ASSERT_LE(counter.Estimate(), static_cast<double>(t + 1) + 1e-9);
  }
}

TEST(HyzDeterministicTest, CheaperThanSampledAtSmallK) {
  // Per round: deterministic ~2k/eps vs sampled ~(sqrt(kL)+L)/eps with
  // L ~ 24; for k << L the deterministic variant wins.
  const int64_t n = 60000;
  const std::vector<double> stream(static_cast<size_t>(n), 1.0);
  const int k = 2;
  hyz::HyzProtocol det(k, DeterministicOptions(0.1, 23));
  hyz::HyzOptions sampled_options;
  sampled_options.epsilon = 0.1;
  sampled_options.seed = 23;
  hyz::HyzProtocol sampled(k, sampled_options);
  sim::RoundRobinAssignment psi_a(k), psi_b(k);
  sim::TrackingOptions tracking;
  tracking.epsilon = 0.1;
  const auto r_det = sim::RunTracking(stream, &psi_a, &det, tracking);
  const auto r_sampled = sim::RunTracking(stream, &psi_b, &sampled, tracking);
  EXPECT_EQ(r_det.violation_steps, 0);
  EXPECT_EQ(r_sampled.violation_steps, 0);
  EXPECT_LT(r_det.messages, r_sampled.messages);
}

TEST(HyzDeterministicTest, Phase2AutoModePicksCheaperVariantAndTracks) {
  // At k = 4 << L ~ 25 the auto mode selects deterministic HYZ, cutting
  // Phase-2 cost without touching correctness.
  const int64_t n = 1 << 15;
  const auto stream = streams::BernoulliStream(n, 0.5, 31);
  core::CounterOptions auto_mode = DefaultOptions(n, 0.25, 32);
  auto_mode.drift_mode = core::DriftMode::kUnknownUnitDrift;
  core::CounterOptions sampled_only = auto_mode;
  sampled_only.phase2_auto_hyz_mode = false;

  auto run = [&](const core::CounterOptions& options) {
    core::NonMonotonicCounter counter(4, options);
    sim::RoundRobinAssignment psi(4);
    sim::TrackingOptions tracking;
    tracking.epsilon = 0.25;
    const auto result = sim::RunTracking(stream, &psi, &counter, tracking);
    EXPECT_EQ(result.violation_steps, 0);
    EXPECT_TRUE(counter.diagnostics().phase2_active);
    return result.messages;
  };
  EXPECT_LT(run(auto_mode), run(sampled_only));
}

TEST(HyzDeterministicTest, WorksAsPhase2BuildingBlock) {
  // Small exactness check with an initial offset (the Phase-2 usage).
  hyz::HyzOptions options = DeterministicOptions(0.05, 25);
  options.initial_total = 1000;
  hyz::HyzProtocol counter(2, options);
  EXPECT_DOUBLE_EQ(counter.Estimate(), 1000.0);
  for (int t = 0; t < 5000; ++t) {
    counter.ProcessUpdate(t % 2, 1.0);
    const double truth = 1000.0 + t + 1;
    ASSERT_GE(counter.Estimate(), truth * (1.0 - 0.05) - 1e-9);
    ASSERT_LE(counter.Estimate(), truth + 1e-9);
  }
}

}  // namespace
}  // namespace nmc
