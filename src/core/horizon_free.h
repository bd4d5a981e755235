#pragma once

#include <cstdint>
#include <memory>

#include "core/nonmonotonic_counter.h"
#include "sim/protocol.h"

namespace nmc::core {

/// Options of the horizon-free wrapper.
struct HorizonFreeOptions {
  /// Per-epoch counter configuration; horizon_n, initial_* and seed are
  /// managed by the wrapper. Phase 2 needs the horizon in its failure
  /// budget, so only DriftMode::kZeroDrift is supported (the guard keeps
  /// drifting inputs correct regardless; see the E12 ablation).
  CounterOptions counter;
  /// Horizon assumed for the first epoch.
  int64_t initial_horizon = 4096;
};

/// Removes the known-horizon assumption of eq. (1)/(2) with the standard
/// doubling trick: run the counter with a guessed horizon; when the stream
/// outlives it, force one sync (<= 3k+1 messages), snapshot the exact
/// state, and restart with a kGrowthFactor larger horizon and the
/// snapshot carried as initial state. Each epoch's guarantee holds with
/// probability 1 - O(1/epoch_horizon), the epochs are geometric, and the
/// total cost is a constant factor above the known-horizon counter — the
/// paper assumes n is known and this wrapper discharges that assumption.
class HorizonFreeCounter : public sim::Protocol {
 public:
  /// Horizon multiplier at each restart. 4 keeps the number of restarts at
  /// ~log4(n) while the log(horizon) in the sampling law changes little.
  static constexpr int64_t kGrowthFactor = 4;

  HorizonFreeCounter(int num_sites, const HorizonFreeOptions& options);

  int num_sites() const override { return num_sites_; }
  void ProcessUpdate(int site_id, double value) override;
  double Estimate() const override;
  const sim::MessageStats& stats() const override;

  /// Number of restarts performed so far.
  int64_t epochs() const { return epochs_; }
  /// The horizon the current epoch assumes.
  int64_t current_horizon() const { return horizon_; }

 private:
  void Restart();

  int num_sites_;
  HorizonFreeOptions options_;
  int64_t horizon_;
  int64_t processed_ = 0;
  int64_t epochs_ = 0;
  uint64_t epoch_seed_;
  std::unique_ptr<NonMonotonicCounter> counter_;
  sim::MessageStats retired_stats_;
  mutable sim::MessageStats combined_stats_;
};

}  // namespace nmc::core

