#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/nonmonotonic_counter.h"
#include "sim/message.h"
#include "sketch/ams_sketch.h"
#include "streams/items.h"

namespace nmc::sketch {

/// Parameters of the distributed F2 tracker.
struct DistributedF2Options {
  /// Sketch width, cols ~ O(1/eps_sketch^2) (the depth is kRows).
  int cols = 64;
  /// Stream horizon (shared by all cell counters' sampling laws).
  int64_t horizon_n = 1;
  uint64_t seed = 1;
};

/// Continuous distributed tracking of the second frequency moment with
/// decrements (Section 5.1): each of the rows x cols fast-AMS cells is a
/// non-monotonic ±1 stream over the k sites, tracked by one Non-monotonic
/// Counter; the coordinator's F2 estimate is the median over rows of the
/// sum of squared tracked cell values. Under randomly ordered input each
/// cell stream is randomly ordered, so the total communication is
/// Õ(sqrt(k n)/eps^2) (Jensen over cells), against the Omega(sqrt(k n)/eps)
/// lower bound inherited from the counter.
class DistributedF2Tracker {
 public:
  /// Sketch depth, rows ~ O(log 1/delta).
  static constexpr int kRows = 5;
  /// Per-cell relative tracking accuracy (Corollary 5.1 takes Theta(eps));
  /// the cell counters run eq. (1) at CounterOptions' alpha and beta.
  static constexpr double kCounterEpsilon = 0.1;

  DistributedF2Tracker(int num_sites, const DistributedF2Options& options);

  int num_sites() const { return num_sites_; }

  /// Feeds one turnstile update arriving at `site_id`.
  void ProcessUpdate(int site_id, const streams::ItemUpdate& update);

  /// The coordinator's current F2 estimate.
  double EstimateF2() const;

  /// Point query: the coordinator's estimate of the current count m_i(t)
  /// of `item` (median over rows of g_j(item) * tracked cell value — the
  /// CountSketch estimator, valid under deletions). Error is
  /// O(sqrt(F2/cols)) w.h.p. plus the cells' tracking error, so the same
  /// state that answers F2 also answers continuous distributed frequency
  /// queries.
  double EstimateFrequency(int64_t item) const;

  /// All items in [0, universe) whose estimated count is at least
  /// `min_count` (coordinator-side scan over the candidate universe using
  /// EstimateFrequency; no communication). With min_count >=
  /// Theta(sqrt(F2/cols)) the CountSketch guarantee makes this a
  /// heavy-hitters query that survives deletions.
  std::vector<int64_t> HeavyItems(int64_t universe, double min_count) const;

  /// Aggregate communication across all cell counters.
  sim::MessageStats stats() const;

  int64_t updates_processed() const { return updates_processed_; }

 private:
  core::NonMonotonicCounter* CellCounter(int row, int64_t col);
  const core::NonMonotonicCounter* CellCounter(int row, int64_t col) const;

  int num_sites_;
  DistributedF2Options options_;
  /// Used purely for its per-row 4-wise hash functions (its cells stay
  /// zero); the tracked state lives in the cell counters below.
  AmsSketch hashes_;
  std::vector<std::unique_ptr<core::NonMonotonicCounter>> cells_;
  int64_t updates_processed_ = 0;
};

}  // namespace nmc::sketch

