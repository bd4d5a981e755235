#include "bench/runner.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <future>

#include "common/check.h"
#include "common/thread_pool.h"
#include "runtime/run.h"
#include "sim/assignment.h"

namespace nmc::bench {

namespace {

/// The deterministic per-trial scalars; everything the fold needs, nothing
/// that depends on scheduling.
struct TrialOutcome {
  int64_t n = 0;
  int64_t messages = 0;
  int64_t violation_steps = 0;
  double max_rel_error = 0.0;
};

TrialOutcome RunTrial(const RepeatSpec& spec, int trial) {
  const auto stream = spec.make_stream(trial);
  auto protocol = spec.make_protocol(trial);
  auto psi = sim::MakeAssignment(spec.psi_name, spec.num_sites,
                                 1000 + static_cast<uint64_t>(trial));
  sim::TrackingOptions tracking;
  tracking.epsilon = spec.epsilon;
  if (spec.batch_size > 0) tracking.batch_size = spec.batch_size;
  runtime::RunConfig config;
  config.protocol = protocol.get();
  config.stream = &stream;
  config.psi = psi.get();
  config.tracking = tracking;
  const auto result =
      runtime::RunWithTransport(runtime::TransportKind::kSim, config)
          .tracking;
  return TrialOutcome{result.n, result.messages, result.violation_steps,
                      result.max_rel_error};
}

}  // namespace

RunSummary RunRepeated(const RepeatSpec& spec, int threads) {
  NMC_CHECK_GT(spec.trials, 0);
  NMC_CHECK_GE(spec.num_sites, 1);
  NMC_CHECK(spec.make_stream != nullptr);
  NMC_CHECK(spec.make_protocol != nullptr);

  const auto start = std::chrono::steady_clock::now();

  std::vector<TrialOutcome> outcomes(static_cast<size_t>(spec.trials));
  const int workers = std::max(1, std::min(threads, spec.trials));
  if (workers == 1) {
    for (int trial = 0; trial < spec.trials; ++trial) {
      outcomes[static_cast<size_t>(trial)] = RunTrial(spec, trial);
    }
  } else {
    common::ThreadPool pool(workers);
    std::vector<std::future<TrialOutcome>> futures;
    futures.reserve(static_cast<size_t>(spec.trials));
    for (int trial = 0; trial < spec.trials; ++trial) {
      futures.push_back(
          pool.Submit([&spec, trial]() { return RunTrial(spec, trial); }));
    }
    for (int trial = 0; trial < spec.trials; ++trial) {
      outcomes[static_cast<size_t>(trial)] =
          futures[static_cast<size_t>(trial)].get();
    }
  }

  // Fold in trial order on this thread: the arithmetic (and therefore
  // every last bit of the aggregates) is independent of how the trials
  // were scheduled above.
  RunSummary summary;
  summary.trials = spec.trials;
  for (const TrialOutcome& outcome : outcomes) {
    summary.messages_stat.Add(static_cast<double>(outcome.messages));
    assert(outcome.n > 0 && "Repeat trial ran an empty stream");
    if (outcome.n > 0) {
      summary.violation_fraction +=
          static_cast<double>(outcome.violation_steps) /
          static_cast<double>(outcome.n);
    }
    if (outcome.violation_steps > 0) ++summary.trials_with_violation;
    summary.max_rel_error =
        std::max(summary.max_rel_error, outcome.max_rel_error);
    summary.total_updates += outcome.n;
  }
  summary.mean_messages = summary.messages_stat.mean();
  summary.stderr_messages = summary.messages_stat.stderr_mean();
  summary.violation_fraction /= spec.trials;

  summary.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return summary;
}

}  // namespace nmc::bench
