#include "sketch/distributed_f2.h"

#include "common/check.h"
#include "common/rng.h"

namespace nmc::sketch {

DistributedF2Tracker::DistributedF2Tracker(
    int num_sites, const DistributedF2Options& options)
    : num_sites_(num_sites),
      options_(options),
      hashes_(kRows, options.cols, options.seed) {
  NMC_CHECK_GE(num_sites, 1);
  NMC_CHECK_GE(options.horizon_n, 1);
  common::Rng seeder(options.seed ^ 0xa5a5a5a5a5a5a5a5ULL);
  core::CounterOptions counter_options;
  counter_options.epsilon = kCounterEpsilon;
  counter_options.horizon_n = options.horizon_n;
  counter_options.drift_mode = core::DriftMode::kZeroDrift;
  cells_.reserve(static_cast<size_t>(kRows) *
                 static_cast<size_t>(options.cols));
  for (int j = 0; j < kRows; ++j) {
    for (int c = 0; c < options.cols; ++c) {
      counter_options.seed = seeder.NextU64();
      cells_.push_back(std::make_unique<core::NonMonotonicCounter>(
          num_sites, counter_options));
    }
  }
}

core::NonMonotonicCounter* DistributedF2Tracker::CellCounter(int row,
                                                             int64_t col) {
  return cells_[static_cast<size_t>(row) * static_cast<size_t>(options_.cols) +
                static_cast<size_t>(col)]
      .get();
}

const core::NonMonotonicCounter* DistributedF2Tracker::CellCounter(
    int row, int64_t col) const {
  return cells_[static_cast<size_t>(row) * static_cast<size_t>(options_.cols) +
                static_cast<size_t>(col)]
      .get();
}

void DistributedF2Tracker::ProcessUpdate(int site_id,
                                         const streams::ItemUpdate& update) {
  NMC_CHECK(update.sign == 1 || update.sign == -1);
  const uint64_t item = static_cast<uint64_t>(update.item);
  for (int j = 0; j < kRows; ++j) {
    const int64_t c = hashes_.BucketOf(j, item);
    const double value =
        static_cast<double>(update.sign * hashes_.SignOf(j, item));
    CellCounter(j, c)->ProcessUpdate(site_id, value);
  }
  ++updates_processed_;
}

double DistributedF2Tracker::EstimateF2() const {
  std::vector<double> row_estimates(static_cast<size_t>(kRows), 0.0);
  for (int j = 0; j < kRows; ++j) {
    double sum_sq = 0.0;
    for (int c = 0; c < options_.cols; ++c) {
      const double v = CellCounter(j, c)->Estimate();
      sum_sq += v * v;
    }
    row_estimates[static_cast<size_t>(j)] = sum_sq;
  }
  return Median(std::move(row_estimates));
}

double DistributedF2Tracker::EstimateFrequency(int64_t item) const {
  NMC_CHECK_GE(item, 0);
  const uint64_t key = static_cast<uint64_t>(item);
  std::vector<double> row_estimates(static_cast<size_t>(kRows), 0.0);
  for (int j = 0; j < kRows; ++j) {
    const int64_t c = hashes_.BucketOf(j, key);
    row_estimates[static_cast<size_t>(j)] =
        static_cast<double>(hashes_.SignOf(j, key)) *
        CellCounter(j, c)->Estimate();
  }
  return Median(std::move(row_estimates));
}

std::vector<int64_t> DistributedF2Tracker::HeavyItems(int64_t universe,
                                                      double min_count) const {
  NMC_CHECK_GE(universe, 0);
  NMC_CHECK_GE(min_count, 0.0);
  std::vector<int64_t> heavy;
  for (int64_t item = 0; item < universe; ++item) {
    if (EstimateFrequency(item) >= min_count) heavy.push_back(item);
  }
  return heavy;
}

sim::MessageStats DistributedF2Tracker::stats() const {
  sim::MessageStats total;
  for (const auto& cell : cells_) total += cell->stats();
  return total;
}

}  // namespace nmc::sketch
