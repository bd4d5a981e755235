#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/runner.h"
#include "common/statistics.h"
#include "core/nonmonotonic_counter.h"
#include "hyz/hyz_counter.h"
#include "registry/builtin.h"
#include "sim/assignment.h"
#include "sim/harness.h"
#include "sim/registry.h"

namespace nmc::bench {

/// Runs `trials` independent tracked runs; `make_stream` and
/// `make_protocol` receive the trial index so each trial can reseed.
///
/// Trials fan out across the session's worker pool (see InitBench /
/// --threads; 1 = serial). Aggregates are bit-identical regardless of the
/// thread count, and each batch is recorded into the session's JSON report
/// when --json_out is set.
inline RunSummary Repeat(
    int trials, int num_sites, double epsilon,
    const std::function<std::vector<double>(int)>& make_stream,
    const std::function<std::unique_ptr<sim::Protocol>(int)>& make_protocol,
    const std::string& psi_name = "round_robin") {
  RepeatSpec spec;
  spec.trials = trials;
  spec.num_sites = num_sites;
  spec.epsilon = epsilon;
  spec.psi_name = psi_name;
  spec.batch_size = BenchBatch();
  spec.make_stream = make_stream;
  spec.make_protocol = make_protocol;
  const RunSummary summary = RunRepeated(spec, BenchThreads());

  RunRecord record;
  record.label = NextRunLabel();
  record.trials = trials;
  record.num_sites = num_sites;
  record.epsilon = epsilon;
  record.psi_name = psi_name;
  record.summary = summary;
  RecordRun(record);
  return summary;
}

/// Convenience: the Non-monotonic Counter with the given options (seed is
/// offset per trial). A faulty --channel=... session config overrides
/// options.channel (perfect stays whatever the caller set, i.e. the
/// default), with the channel seed offset per trial like the protocol
/// seed.
inline std::function<std::unique_ptr<sim::Protocol>(int)> CounterFactory(
    int num_sites, core::CounterOptions options) {
  if (BenchChannel().faulty()) options.channel = BenchChannel();
  return [num_sites, options](int trial) {
    core::CounterOptions per_trial = options;
    per_trial.seed = options.seed + static_cast<uint64_t>(trial) * 7919;
    if (per_trial.channel.faulty()) {
      per_trial.channel.seed =
          options.channel.seed + static_cast<uint64_t>(trial) * 7919;
    }
    return std::make_unique<core::NonMonotonicCounter>(num_sites, per_trial);
  };
}

/// Convenience: the HYZ monotonic counter with the given options (seed is
/// offset per trial; channel handling mirroring CounterFactory).
inline std::function<std::unique_ptr<sim::Protocol>(int)> HyzFactory(
    int num_sites, hyz::HyzOptions options) {
  if (BenchChannel().faulty()) options.channel = BenchChannel();
  return [num_sites, options](int trial) {
    hyz::HyzOptions per_trial = options;
    per_trial.seed = options.seed + static_cast<uint64_t>(trial);
    if (per_trial.channel.faulty()) {
      per_trial.channel.seed =
          options.channel.seed + static_cast<uint64_t>(trial);
    }
    return std::make_unique<hyz::HyzProtocol>(num_sites, per_trial);
  };
}

/// Convenience: a protocol built by name through sim::ProtocolRegistry
/// (builtins are registered on first use). A faulty --channel config
/// folds into the params exactly as in
/// CounterFactory / HyzFactory. `seed_stride` is the per-trial seed
/// offset and mirrors whichever factory a call site replaces:
/// CounterFactory reseeds by 7919 per trial, HyzFactory by 1.
inline std::function<std::unique_ptr<sim::Protocol>(int)> RegistryFactory(
    const std::string& name, int num_sites, sim::ProtocolParams params = {},
    uint64_t seed_stride = 7919) {
  registry::RegisterBuiltinProtocols();
  if (BenchChannel().faulty()) params.channel = BenchChannel();
  return [name, num_sites, params, seed_stride](int trial) {
    sim::ProtocolParams per_trial = params;
    per_trial.seed = params.seed + static_cast<uint64_t>(trial) * seed_stride;
    if (per_trial.channel.faulty()) {
      per_trial.channel.seed =
          params.channel.seed + static_cast<uint64_t>(trial) * seed_stride;
    }
    return sim::ProtocolRegistry::Global().Create(name, num_sites, per_trial);
  };
}

/// Prints the standard experiment banner.
inline void Banner(const std::string& experiment, const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper claim: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

/// Prints a fitted power-law line: "fit: y ~ x^p (r2=..)".
inline void PrintFit(const std::string& what, const std::vector<double>& xs,
                     const std::vector<double>& ys) {
  const auto fit = common::FitPowerLaw(xs, ys);
  std::printf("fit: %s ~ x^%.3f  (r2 = %.3f)\n", what.c_str(), fit.slope,
              fit.r2);
}

}  // namespace nmc::bench

