#include "core/horizon_free.h"

#include "common/check.h"

namespace nmc::core {

HorizonFreeCounter::HorizonFreeCounter(int num_sites,
                                       const HorizonFreeOptions& options)
    : num_sites_(num_sites),
      options_(options),
      horizon_(options.initial_horizon),
      epoch_seed_(options.counter.seed) {
  NMC_CHECK_GE(options.initial_horizon, 2);
  static_assert(kGrowthFactor >= 2);
  NMC_CHECK(options.counter.drift_mode == DriftMode::kZeroDrift);
  CounterOptions epoch = options_.counter;
  epoch.horizon_n = horizon_;
  epoch.seed = epoch_seed_++;
  counter_ = std::make_unique<NonMonotonicCounter>(num_sites_, epoch);
}

void HorizonFreeCounter::ProcessUpdate(int site_id, double value) {
  if (processed_ >= horizon_) Restart();
  counter_->ProcessUpdate(site_id, value);
  ++processed_;
}

void HorizonFreeCounter::Restart() {
  counter_->ForceSync();
  CounterOptions epoch = options_.counter;
  epoch.initial_updates = counter_->SyncedUpdates();
  epoch.initial_sum = counter_->Estimate();  // exact after ForceSync
  epoch.initial_sum_sq = counter_->SyncedSumSquares();
  NMC_CHECK_EQ(epoch.initial_updates, processed_);
  retired_stats_ += counter_->stats();
  horizon_ *= kGrowthFactor;
  epoch.horizon_n = horizon_;
  epoch.seed = epoch_seed_++;
  // one allocation per epoch restart; the horizon grows geometrically, so this runs O(log n) times per trial, not per update
  counter_ = std::make_unique<NonMonotonicCounter>(num_sites_, epoch);
  ++epochs_;
}

double HorizonFreeCounter::Estimate() const { return counter_->Estimate(); }

const sim::MessageStats& HorizonFreeCounter::stats() const {
  combined_stats_ = retired_stats_;
  combined_stats_ += counter_->stats();
  return combined_stats_;
}

}  // namespace nmc::core
