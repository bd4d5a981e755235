// Deterministic configuration fuzzing: pseudo-random (but fixed-seed)
// combinations of stream model, k, epsilon, options, and assignment
// policy, each checked against the tracking invariant. Catches parameter
// interactions no hand-written grid covers.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/nonmonotonic_counter.h"
#include "sim/assignment.h"
#include "sim/harness.h"
#include "streams/bernoulli.h"
#include "streams/fbm.h"
#include "streams/permutation.h"

namespace nmc {
namespace {

struct FuzzConfig {
  std::string model;
  int k = 1;
  double epsilon = 0.1;
  double mu = 0.0;
  double hurst = 0.75;
  std::string psi;
  bool variance_adaptive = false;
  bool drift_mode = false;
  core::StagePolicy stage_policy = core::StagePolicy::kAuto;
  uint64_t seed = 0;

  std::string ToString() const {
    return model + " k=" + std::to_string(k) +
           " eps=" + std::to_string(epsilon) + " mu=" + std::to_string(mu) +
           " psi=" + psi + " va=" + std::to_string(variance_adaptive) +
           " dm=" + std::to_string(drift_mode) +
           " sp=" + std::to_string(static_cast<int>(stage_policy)) +
           " seed=" + std::to_string(seed);
  }
};

FuzzConfig DrawConfig(common::Rng* rng) {
  FuzzConfig config;
  const std::vector<std::string> models{"iid", "fractional", "permuted",
                                        "fbm"};
  config.model = models[static_cast<size_t>(rng->UniformInt(0, 3))];
  config.k = static_cast<int>(rng->UniformInt(1, 12));
  config.epsilon = 0.05 + 0.3 * rng->UniformDouble();
  config.mu = (config.model == "iid") ? rng->UniformDouble() * 0.8 : 0.0;
  config.hurst = 0.55 + 0.35 * rng->UniformDouble();
  const std::vector<std::string> psis{"round_robin", "random", "single",
                                      "block", "sign_split", "zero_crossing"};
  config.psi = psis[static_cast<size_t>(rng->UniformInt(0, 5))];
  config.variance_adaptive = rng->Bernoulli(0.3);
  // Drift mode requires ±1 updates.
  config.drift_mode = config.model == "iid" && rng->Bernoulli(0.5);
  const std::vector<core::StagePolicy> policies{
      core::StagePolicy::kAuto, core::StagePolicy::kPaperBoundary,
      core::StagePolicy::kSbcOnly, core::StagePolicy::kStraightOnly};
  config.stage_policy =
      policies[static_cast<size_t>(rng->UniformInt(0, 3))];
  config.seed = rng->NextU64();
  return config;
}

std::vector<double> MakeStream(const FuzzConfig& config, int64_t n) {
  if (config.model == "iid") {
    return streams::BernoulliStream(n, config.mu, config.seed);
  }
  if (config.model == "fractional") {
    return streams::FractionalIidStream(n, 0.0, 1.0, config.seed);
  }
  if (config.model == "permuted") {
    const double bias =
        0.3 + 0.4 * static_cast<double>(config.seed % 5) / 4.0;
    return streams::RandomlyPermuted(streams::SignMultiset(n, bias),
                                     config.seed);
  }
  return streams::FgnDaviesHarte(n, config.hurst, config.seed);
}

TEST(FuzzTest, RandomConfigurationsAllTrack) {
  common::Rng rng(20260705);
  const int64_t n = 4096;
  for (int iteration = 0; iteration < 60; ++iteration) {
    const FuzzConfig config = DrawConfig(&rng);
    core::CounterOptions options;
    options.epsilon = config.epsilon;
    options.horizon_n = n;
    options.variance_adaptive = config.variance_adaptive;
    options.stage_policy = config.stage_policy;
    if (config.model == "fbm") options.fbm_delta = 1.0 / config.hurst;
    if (config.drift_mode) {
      options.drift_mode = core::DriftMode::kUnknownUnitDrift;
    }
    options.seed = config.seed + 1;

    core::NonMonotonicCounter counter(config.k, options);
    auto psi = sim::MakeAssignment(config.psi, config.k, config.seed + 2);
    ASSERT_NE(psi, nullptr);
    sim::TrackingOptions tracking;
    tracking.epsilon = config.epsilon;
    const auto stream = MakeStream(config, n);
    const auto result =
        sim::RunTracking(stream, psi.get(), &counter, tracking);
    EXPECT_EQ(result.violation_steps, 0) << config.ToString();
    EXPECT_LE(result.messages,
              (3 * static_cast<int64_t>(config.k) + 3) * n)
        << config.ToString();
  }
}

}  // namespace
}  // namespace nmc
