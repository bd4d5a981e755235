// nmc_sim — command-line driver for the tracking protocols.
//
// Runs any protocol of the library against any input model with full
// control over the parameters, and prints a per-trial table (optionally
// CSV) plus a summary. The tool is how you explore regimes that the fixed
// E1..E12 benches don't sweep.
//
// Examples:
//   nmc_sim --protocol=counter --model=iid --mu=0.2 --n=100000 --k=8
//   nmc_sim --protocol=counter --model=fbm --hurst=0.8 --eps=0.05
//   nmc_sim --protocol=two_monotonic --model=permuted --trials=5 --csv
//   nmc_sim --help

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/exact_sync.h"
#include "baselines/periodic_sync.h"
#include "baselines/two_monotonic.h"
#include "common/flags.h"
#include "common/statistics.h"
#include "common/table.h"
#include "core/horizon_free.h"
#include "core/nonmonotonic_counter.h"
#include "hyz/hyz_counter.h"
#include "runtime/run.h"
#include "sim/assignment.h"
#include "streams/adversarial.h"
#include "streams/bernoulli.h"
#include "streams/fbm.h"
#include "streams/permutation.h"

namespace {

constexpr char kUsage[] = R"(nmc_sim — continuous distributed counting simulator

  --protocol=NAME   counter (default) | horizon_free | hyz | exact |
                    periodic | two_monotonic
  --model=NAME      iid (default) | fractional | permuted | fbm |
                    alternating | sawtooth
  --n=INT           stream length (default 65536)
  --k=INT           number of sites (default 4)
  --eps=FLOAT       relative accuracy (default 0.1)
  --trials=INT      independent runs (default 3)
  --seed=INT        base seed (default 1)
  --psi=NAME        round_robin (default) | random | single | block |
                    sign_split | zero_crossing
  --csv             emit CSV instead of the aligned table

model parameters:
  --mu=FLOAT        drift of the iid/fractional models (default 0)
  --multiset=NAME   permuted model: balanced | biased | oscillating |
                    skewed | blocks (default balanced)
  --hurst=FLOAT     fbm model Hurst parameter (default 0.75)
  --peak=INT        sawtooth swing amplitude (default 64)

counter parameters (protocol=counter / horizon_free):
  --drift_mode=NAME zero (default) | unknown   (unknown requires ±1 input)
  --alpha=FLOAT --beta=FLOAT   eq. (1) constants (defaults 2, 2)
  --variance_adaptive          enable the value-scale extension
  --no_guard                   disable the conservative drift guard

baseline parameters:
  --period=INT      periodic baseline's reporting period (default 64)

output:
  --curve=N         dump an N-point trajectory of trial 0 as CSV
                    (t, messages, exact_sum, estimate) instead of the
                    summary table
)";

std::vector<double> MakeStream(const nmc::common::Flags& flags, int64_t n,
                               uint64_t seed) {
  const std::string model = flags.GetString("model", "iid");
  const double mu = flags.GetDouble("mu", 0.0);
  if (model == "iid") return nmc::streams::BernoulliStream(n, mu, seed);
  if (model == "fractional") {
    return nmc::streams::FractionalIidStream(n, mu, 1.0, seed);
  }
  if (model == "permuted") {
    const std::string multiset = flags.GetString("multiset", "balanced");
    return nmc::streams::RandomlyPermuted(
        nmc::streams::MakeAdversaryMultiset(multiset, n), seed);
  }
  if (model == "fbm") {
    return nmc::streams::FgnDaviesHarte(n, flags.GetDouble("hurst", 0.75),
                                        seed);
  }
  if (model == "alternating") return nmc::streams::AlternatingStream(n);
  if (model == "sawtooth") {
    return nmc::streams::SawtoothStream(n, flags.GetInt("peak", 64));
  }
  std::fprintf(stderr, "unknown --model=%s\n", model.c_str());
  std::exit(1);
}

std::unique_ptr<nmc::sim::Protocol> MakeProtocol(
    const nmc::common::Flags& flags, int k, int64_t n, double eps,
    uint64_t seed) {
  const std::string protocol = flags.GetString("protocol", "counter");
  if (protocol == "counter" || protocol == "horizon_free") {
    nmc::core::CounterOptions options;
    options.epsilon = eps;
    options.horizon_n = n;
    options.alpha = flags.GetDouble("alpha", options.alpha);
    options.beta = flags.GetDouble("beta", options.beta);
    options.variance_adaptive = flags.GetBool("variance_adaptive", false);
    options.enable_drift_guard = !flags.GetBool("no_guard", false);
    if (flags.GetString("model", "iid") == "fbm") {
      options.fbm_delta = 1.0 / flags.GetDouble("hurst", 0.75);
    }
    if (flags.GetString("drift_mode", "zero") == "unknown") {
      options.drift_mode = nmc::core::DriftMode::kUnknownUnitDrift;
    }
    options.seed = seed;
    if (protocol == "horizon_free") {
      nmc::core::HorizonFreeOptions hf;
      hf.counter = options;
      return std::make_unique<nmc::core::HorizonFreeCounter>(k, hf);
    }
    return std::make_unique<nmc::core::NonMonotonicCounter>(k, options);
  }
  if (protocol == "hyz") {
    nmc::hyz::HyzOptions options;
    options.epsilon = eps;
    options.seed = seed;
    return std::make_unique<nmc::hyz::HyzProtocol>(k, options);
  }
  if (protocol == "exact") {
    return std::make_unique<nmc::baselines::ExactSyncProtocol>(k);
  }
  if (protocol == "periodic") {
    return std::make_unique<nmc::baselines::PeriodicSyncProtocol>(
        k, flags.GetInt("period", 64));
  }
  if (protocol == "two_monotonic") {
    return std::make_unique<nmc::baselines::TwoMonotonicProtocol>(k, eps,
                                                                  1e-6, seed);
  }
  std::fprintf(stderr, "unknown --protocol=%s\n", protocol.c_str());
  std::exit(1);
}

/// Rejects typos and malformed values: prints the first to stderr and
/// returns false. Call only once every flag has been queried.
bool FlagsValid(const nmc::common::Flags& flags) {
  for (const auto& key : flags.UnusedKeys()) {
    std::fprintf(stderr, "unknown flag --%s\n%s", key.c_str(), kUsage);
    return false;
  }
  for (const auto& key : flags.Malformed()) {
    std::fprintf(stderr, "malformed value for --%s\n", key.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  nmc::common::Flags flags;
  const auto status = nmc::common::Flags::Parse(argc, argv, &flags);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(), kUsage);
    return 1;
  }
  if (flags.Has("help")) {
    std::fputs(kUsage, stdout);
    (void)flags.GetBool("help", false);
    return 0;
  }

  const int64_t n = flags.GetInt("n", 65536);
  const int k = static_cast<int>(flags.GetInt("k", 4));
  const double eps = flags.GetDouble("eps", 0.1);
  const int trials = static_cast<int>(flags.GetInt("trials", 3));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const std::string psi_name = flags.GetString("psi", "round_robin");
  const bool csv = flags.GetBool("csv", false);
  const int64_t curve_points = flags.GetInt("curve", 0);
  if (trials < 1) {
    // Flags are validated in trial 0, so a run needs one.
    std::fprintf(stderr, "--trials must be at least 1\n");
    return 1;
  }

  nmc::common::Table table({"trial", "messages", "violation_steps",
                            "max_rel_err", "final_sum", "final_estimate"});
  nmc::common::RunningStat messages;
  int64_t total_violations = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const uint64_t trial_seed = seed + static_cast<uint64_t>(trial) * 9973;
    const auto stream = MakeStream(flags, n, trial_seed);
    auto protocol = MakeProtocol(flags, k, n, eps, trial_seed + 1);
    auto psi = nmc::sim::MakeAssignment(psi_name, k, trial_seed + 2);
    if (psi == nullptr) {
      std::fprintf(stderr, "unknown --psi=%s\n", psi_name.c_str());
      return 1;
    }
    // Trial 0 has built the stream, protocol and psi, so every flag has
    // been queried: reject typos before any output (the curve dump below
    // prints and returns inside this trial).
    if (trial == 0 && !FlagsValid(flags)) return 1;
    nmc::sim::TrackingOptions tracking;
    tracking.epsilon = eps;
    if (trial == 0 && curve_points > 0) {
      tracking.curve_points = static_cast<int>(curve_points);
    }
    nmc::runtime::RunConfig config;
    config.protocol = protocol.get();
    config.stream = &stream;
    config.psi = psi.get();
    config.tracking = tracking;
    const auto result = nmc::runtime::RunWithTransport(
                            nmc::runtime::TransportKind::kSim, config)
                            .tracking;
    if (trial == 0 && curve_points > 0) {
      nmc::common::Table curve({"t", "messages", "exact_sum", "estimate"});
      for (const auto& point : result.curve) {
        curve.AddRow({nmc::common::Format(point.t),
                      nmc::common::Format(point.messages),
                      nmc::common::Format(point.sum, 2),
                      nmc::common::Format(point.estimate, 2)});
      }
      std::fputs(curve.ToCsv().c_str(), stdout);
      return 0;
    }
    table.AddRow({nmc::common::Format(static_cast<int64_t>(trial)),
                  nmc::common::Format(result.messages),
                  nmc::common::Format(result.violation_steps),
                  nmc::common::Format(result.max_rel_error, 4),
                  nmc::common::Format(result.final_sum, 1),
                  nmc::common::Format(result.final_estimate, 1)});
    messages.Add(static_cast<double>(result.messages));
    total_violations += result.violation_steps;
  }

  if (csv) {
    std::fputs(table.ToCsv().c_str(), stdout);
  } else {
    table.Print();
    std::printf("\nmean messages     : %.0f (stderr %.0f)\n", messages.mean(),
                messages.stderr_mean());
    std::printf("messages / update : %.3f\n",
                messages.mean() / static_cast<double>(n));
    std::printf("violating steps   : %lld across %d trials\n",
                static_cast<long long>(total_violations), trials);
  }
  return 0;
}
