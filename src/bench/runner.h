#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/statistics.h"
#include "sim/protocol.h"

namespace nmc::bench {

/// Aggregated outcome of repeated tracked runs (mean over trials).
struct RunSummary {
  double mean_messages = 0.0;
  double stderr_messages = 0.0;
  /// Fraction of steps violating the epsilon guarantee, averaged over
  /// trials. An empty-stream trial contributes exactly 0.0 (and trips an
  /// assert in debug builds: benchmarking a zero-length stream is a
  /// harness bug, not a measurement).
  double violation_fraction = 0.0;
  /// Number of trials with at least one violating step.
  int trials_with_violation = 0;
  double max_rel_error = 0.0;
  int trials = 0;
  /// Sum of stream lengths over all trials — the updates the simulator
  /// actually pumped, for throughput accounting.
  int64_t total_updates = 0;
  /// Wall-clock time of the whole batch. Unlike every field above, this is
  /// NOT deterministic across thread counts or machines.
  double wall_seconds = 0.0;
  /// Full per-trial message-count accumulator (mean_messages and
  /// stderr_messages are its projections); lets downstream consumers pool
  /// batches via RunningStat::Merge without losing moments.
  common::RunningStat messages_stat;

  double updates_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(total_updates) / wall_seconds
               : 0.0;
  }
};

/// One batch of repeated tracked runs. The factories receive the trial
/// index and must derive all randomness from it, so any trial can be run
/// on any worker (or re-run) and produce the same result.
struct RepeatSpec {
  int trials = 1;
  int num_sites = 1;
  double epsilon = 0.1;
  std::string psi_name = "round_robin";
  /// Harness batch size (see TrackingOptions::batch_size); 0 keeps the
  /// harness default.
  int batch_size = 0;
  std::function<std::vector<double>(int)> make_stream;
  std::function<std::unique_ptr<sim::Protocol>(int)> make_protocol;
};

/// Runs the batch, fanning trials across `threads` pool workers
/// (threads <= 1 runs them inline, the legacy serial behavior). Per-trial
/// seeds depend only on the trial index and the per-trial outcomes are
/// folded in trial order on the calling thread, so every statistical field
/// of the result is bit-identical for every thread count.
RunSummary RunRepeated(const RepeatSpec& spec, int threads);

}  // namespace nmc::bench

