// The geometric fast-forward must be indistinguishable in distribution
// from one Bernoulli coin per update. Three angles: (1) the inter-report
// gap histogram of a frozen-rate HYZ round against the exact geometric
// law, by a one-sample chi-square; (2) the coin-free deterministic HYZ
// variant, whose transcript must not depend on the seed at all; (3)
// pooled end-to-end message counts on E2/E8/E11-style configurations,
// which must agree within sampling-noise bands with reference means
// measured on the per-coin implementation the skip sampler replaced.

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "core/nonmonotonic_counter.h"
#include "hyz/hyz_counter.h"
#include "sim/assignment.h"
#include "sim/harness.h"
#include "streams/adversarial.h"
#include "streams/bernoulli.h"
#include "test_util.h"

namespace nmc {
namespace {

constexpr int kHyzReport = 1;    // mirrors hyz_counter.cc's MessageType
constexpr int kHyzCollect = 2;

// ---- (1) Frozen-rate inter-report gaps ------------------------------------

struct GapSample {
  std::vector<int64_t> gaps;
  double rate = 0.0;
};

// Runs single-site kSampled HYZ trials sized to stay inside the first
// round (initial_total dominates, so the estimate never doubles and the
// rate stays frozen) and pools the distances between consecutive reports.
GapSample CollectHyzGaps(uint64_t seed_base) {
  const int64_t kBase = 20000;
  const int64_t kPerTrial = 15000;  // < kBase: no collect can trigger
  const int kTrials = 80;
  GapSample out;
  for (int trial = 0; trial < kTrials; ++trial) {
    hyz::HyzOptions options;
    options.mode = hyz::HyzMode::kSampled;
    options.epsilon = 0.5;
    options.delta = 1e-6;
    options.initial_total = kBase;
    options.seed = seed_base + static_cast<uint64_t>(trial);
    hyz::HyzProtocol protocol(1, options);
    out.rate = protocol.current_rate();
    bool reported = false;
    protocol.SetMessageObserver([&](const sim::Network::SentMessage& sent) {
      if (sent.message.type == kHyzReport) reported = true;
      // A collect would end the round and unfreeze the rate, voiding the
      // experiment's premise.
      ASSERT_NE(sent.message.type, kHyzCollect);
    });
    int64_t t = 0;
    int64_t last_report = 0;
    while (t < kPerTrial) {
      reported = false;
      const int64_t consumed =
          protocol.ProcessRun(0, std::min<int64_t>(4096, kPerTrial - t));
      t += consumed;
      if (reported) {
        // Memorylessness makes every inter-report distance (including the
        // one from the trial start) i.i.d. Geometric(rate) + 1.
        out.gaps.push_back(t - last_report);
        last_report = t;
      }
    }
  }
  return out;
}

TEST(SkipEquivalenceTest, HyzFrozenRateGapHistogramMatchesGeometricLaw) {
  const GapSample skip = CollectHyzGaps(900);
  ASSERT_GT(skip.gaps.size(), 1000u);
  const double p = skip.rate;

  // Bin edges at fractions of the geometric mean 1/p; the tail bin
  // (>= 3 means) still expects ~5% of the mass. A distance d >= 1 has
  // P[d <= x] = 1 - (1-p)^floor(x) per coin-per-update sampling.
  const double mean = 1.0 / p;
  const double edges[] = {0.125 * mean, 0.25 * mean, 0.5 * mean, 0.75 * mean,
                          mean,         1.5 * mean,  2.0 * mean, 3.0 * mean};
  const int kBins = 9;
  const auto cdf = [&](double x) {
    return 1.0 - std::pow(1.0 - p, std::floor(x));
  };
  std::vector<double> counts(kBins, 0.0);
  for (const int64_t gap : skip.gaps) {
    int bin = 0;
    while (bin < kBins - 1 && static_cast<double>(gap) > edges[bin]) ++bin;
    counts[static_cast<size_t>(bin)] += 1.0;
  }
  const double n = static_cast<double>(skip.gaps.size());
  double chi2 = 0.0;
  double below = 0.0;
  for (int bin = 0; bin < kBins; ++bin) {
    const double upto = bin < kBins - 1 ? cdf(edges[bin]) : 1.0;
    const double expected = (upto - below) * n;
    below = upto;
    ASSERT_GT(expected, 5.0);
    const double diff = counts[static_cast<size_t>(bin)] - expected;
    chi2 += diff * diff / expected;
  }
  // df = 8; the 0.999 quantile is 26.1. Fixed seeds, so this is a
  // deterministic regression check, not a flaky statistical one.
  EXPECT_LT(chi2, 26.1);

  // The pooled mean must match too (a location shift could in principle
  // slip past a coarse histogram): sd of Geometric(p) + 1 is sqrt(1-p)/p.
  double sum = 0.0;
  for (const int64_t gap : skip.gaps) sum += static_cast<double>(gap);
  EXPECT_NEAR(sum / n, mean, 4.0 * std::sqrt(1.0 - p) * mean / std::sqrt(n));
}

// ---- (2) Deterministic HYZ: coin-free, so the seed is unobservable --------

TEST(SkipEquivalenceTest, DeterministicHyzTranscriptIndependentOfSeed) {
  struct Sent {
    bool to_coordinator;
    int site_id;
    int type;
    int64_t u;
    bool operator==(const Sent&) const = default;
  };
  auto run = [](uint64_t seed) {
    hyz::HyzOptions options;
    options.mode = hyz::HyzMode::kDeterministic;
    options.epsilon = 0.1;
    options.delta = 1e-6;
    options.seed = seed;
    hyz::HyzProtocol protocol(3, options);
    std::vector<Sent> transcript;
    protocol.SetMessageObserver([&](const sim::Network::SentMessage& sent) {
      transcript.push_back({sent.to_coordinator, sent.site_id,
                            sent.message.type, sent.message.u});
    });
    for (int64_t t = 0; t < (1 << 14); ++t) {
      protocol.ProcessUpdate(static_cast<int>(t % 3), 1.0);
    }
    return transcript;
  };
  const auto first = run(42);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, run(43));
}

// ---- (3) Pooled message counts on bench-style configurations --------------

struct Pooled {
  double mean = 0.0;
  double stderr_mean = 0.0;
  int64_t violations = 0;
};

Pooled Summarize(const std::vector<double>& samples) {
  Pooled out;
  const double n = static_cast<double>(samples.size());
  for (const double s : samples) out.mean += s;
  out.mean /= n;
  double ss = 0.0;
  for (const double s : samples) ss += (s - out.mean) * (s - out.mean);
  out.stderr_mean = std::sqrt(ss / (n - 1.0) / n);
  return out;
}

// `coins` is the pooled mean and standard error of 12 trials of the same
// configuration under one Bernoulli coin per update, measured before the
// per-coin samplers were retired. The skip sampler's pooled mean must fall
// inside the combined noise band around it.
void ExpectWithinBand(const Pooled& coins, const Pooled& skip) {
  const double band = 4.0 * std::sqrt(coins.stderr_mean * coins.stderr_mean +
                                      skip.stderr_mean * skip.stderr_mean);
  const double slack = 0.02 * std::max(coins.mean, skip.mean);
  EXPECT_NEAR(coins.mean, skip.mean, std::max(band, slack))
      << "per-coin mean " << coins.mean << " +- " << coins.stderr_mean
      << ", skip mean " << skip.mean << " +- " << skip.stderr_mean;
}

Pooled RunCounterTrials(int num_sites, double epsilon,
                        const std::function<std::vector<double>(int)>& stream,
                        int trials) {
  std::vector<double> messages;
  Pooled out;
  for (int trial = 0; trial < trials; ++trial) {
    core::CounterOptions options = testing::DefaultOptions(
        0, epsilon, 1000 + static_cast<uint64_t>(trial) * 7919);
    const auto values = stream(trial);
    options.horizon_n = static_cast<int64_t>(values.size());
    const auto result = testing::RunCounter(values, num_sites, options);
    messages.push_back(static_cast<double>(result.messages));
    out.violations += result.violation_steps;
  }
  const Pooled stats = Summarize(messages);
  out.mean = stats.mean;
  out.stderr_mean = stats.stderr_mean;
  return out;
}

TEST(SkipEquivalenceTest, MultisiteDriftMessageMeansAgree) {
  // E2-style: k = 8 sites, drifting Bernoulli stream.
  const auto stream = [](int trial) {
    return streams::BernoulliStream(1 << 14, 0.5,
                                    200 + static_cast<uint64_t>(trial));
  };
  ExpectWithinBand(Pooled{9884.4166666666661, 138.46246938897534},
                   RunCounterTrials(8, 0.2, stream, 12));
}

TEST(SkipEquivalenceTest, AdversarialSawtoothMessageMeansAgree) {
  // E8-style: deterministic zero-crossing sawtooth; the only randomness is
  // the protocol's own coins. Every per-coin trial stayed in StraightSync
  // (2 messages per update).
  const auto stream = [](int) { return streams::SawtoothStream(1 << 13, 64); };
  ExpectWithinBand(Pooled{16384.0, 0.0}, RunCounterTrials(4, 0.25, stream, 12));
}

TEST(SkipEquivalenceTest, MonotonicHyzMessageMeansAgree) {
  // E11-style: native HYZ (kSampled) on an all-ones stream.
  const int64_t n = 1 << 14;
  const std::vector<double> stream(static_cast<size_t>(n), 1.0);
  std::vector<double> messages;
  for (int trial = 0; trial < 12; ++trial) {
    hyz::HyzOptions options;
    options.epsilon = 0.1;
    options.delta = 1e-6;
    options.seed = 4500 + static_cast<uint64_t>(trial);
    hyz::HyzProtocol protocol(8, options);
    sim::RoundRobinAssignment psi(8);
    sim::TrackingOptions tracking;
    tracking.epsilon = 1.0;  // per-round guarantee only; don't gate here
    const auto result = sim::RunTracking(stream, &psi, &protocol, tracking);
    messages.push_back(static_cast<double>(result.messages));
  }
  ExpectWithinBand(Pooled{2100.9166666666665, 8.2933510547408833},
                   Summarize(messages));
}

}  // namespace
}  // namespace nmc
