#include "sketch/distributed_f2.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/assignment.h"
#include "common/rng.h"
#include "streams/items.h"

namespace nmc::sketch {
namespace {

DistributedF2Options Options(int64_t n) {
  DistributedF2Options options;
  options.cols = 128;
  options.horizon_n = n;
  options.seed = 13;
  return options;
}

TEST(DistributedF2Test, TracksF2WithinToleranceThroughout) {
  const int64_t n = 6000;
  const int64_t universe = 64;
  const auto updates = streams::PermutedItemStream(
      streams::ZipfTurnstileStream(n, universe, 1.0, 0.2, 1), 2);
  const auto exact_prefix = streams::ExactF2Prefix(updates, universe);

  const int k = 4;
  DistributedF2Tracker tracker(k, Options(n));
  sim::RoundRobinAssignment psi(k);
  int64_t checked = 0, violations = 0;
  for (int64_t t = 0; t < n; ++t) {
    const auto& u = updates[static_cast<size_t>(t)];
    tracker.ProcessUpdate(psi.NextSite(t, u.sign), u);
    const double exact = static_cast<double>(exact_prefix[static_cast<size_t>(t)]);
    if (exact >= 100.0) {  // relative error meaningful
      ++checked;
      const double est = tracker.EstimateF2();
      // Cell-tracking error (~2*eps) plus sketch error (~sqrt(2/cols),
      // boosted by the row median). 0.45 is a loose end-to-end budget.
      if (std::fabs(est - exact) > 0.45 * exact) ++violations;
    }
  }
  EXPECT_GT(checked, n / 2);
  EXPECT_EQ(violations, 0);
}

TEST(DistributedF2Test, FinalEstimateCloseToExact) {
  const int64_t n = 8000;
  const int64_t universe = 128;
  const auto updates = streams::PermutedItemStream(
      streams::ZipfTurnstileStream(n, universe, 1.2, 0.15, 3), 4);
  const int64_t exact = streams::ExactF2(updates, universe);

  DistributedF2Tracker tracker(2, Options(n));
  sim::RoundRobinAssignment psi(2);
  for (int64_t t = 0; t < n; ++t) {
    const auto& u = updates[static_cast<size_t>(t)];
    tracker.ProcessUpdate(psi.NextSite(t, u.sign), u);
  }
  EXPECT_NEAR(tracker.EstimateF2(), static_cast<double>(exact),
              0.3 * static_cast<double>(exact));
  EXPECT_EQ(tracker.updates_processed(), n);
}

TEST(DistributedF2Test, CommunicationIsAccounted) {
  const int64_t n = 2000;
  const auto updates = streams::ZipfInsertStream(n, 32, 1.0, 5);
  DistributedF2Tracker tracker(2, Options(n));
  sim::RoundRobinAssignment psi(2);
  for (int64_t t = 0; t < n; ++t) {
    tracker.ProcessUpdate(psi.NextSite(t, 1.0),
                          updates[static_cast<size_t>(t)]);
  }
  const auto stats = tracker.stats();
  EXPECT_GT(stats.total(), 0);
  // Each update touches `rows` cell counters; the straight stage costs at
  // most 2 messages per touch, plus stage/guard sync overheads.
  EXPECT_LE(stats.total(), 5 * 2 * n + 6000);
}

TEST(DistributedF2Test, EmptyTrackerEstimatesZero) {
  DistributedF2Tracker tracker(2, Options(100));
  EXPECT_DOUBLE_EQ(tracker.EstimateF2(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.EstimateFrequency(7), 0.0);
}

TEST(DistributedF2Test, FrequencyPointQueriesTrackHeavyItems) {
  // A few heavy items among Zipf noise: their tracked frequencies must be
  // within CountSketch noise (~sqrt(F2/cols)) of the truth.
  const int64_t n = 6000;
  const int64_t universe = 128;
  auto updates = streams::ZipfTurnstileStream(n, universe, 1.0, 0.15, 21);
  const int k = 2;
  DistributedF2Tracker tracker(k, Options(n));
  sim::RoundRobinAssignment psi(k);
  std::vector<int64_t> counts(static_cast<size_t>(universe), 0);
  for (int64_t t = 0; t < n; ++t) {
    const auto& u = updates[static_cast<size_t>(t)];
    tracker.ProcessUpdate(psi.NextSite(t, u.sign), u);
    counts[static_cast<size_t>(u.item)] += u.sign;
  }
  const double f2 = static_cast<double>(streams::ExactF2(updates, universe));
  const double noise = 4.0 * std::sqrt(f2 / 128.0);  // cols = 128
  for (int64_t item = 0; item < 5; ++item) {  // Zipf head = heavy items
    const double truth = static_cast<double>(counts[static_cast<size_t>(item)]);
    EXPECT_NEAR(tracker.EstimateFrequency(item), truth,
                noise + 0.25 * truth)
        << "item " << item;
  }
}

TEST(DistributedF2Test, HeavyItemsFindsThePlantedHead) {
  // Plant three very heavy items among uniform noise; HeavyItems at a
  // threshold above the CountSketch noise must return exactly those.
  const int64_t universe = 64;
  DistributedF2Tracker tracker(2, Options(20000));
  sim::RoundRobinAssignment psi(2);
  common::Rng rng(31);
  int64_t t = 0;
  for (int64_t i = 0; i < 3000; ++i, ++t) {
    tracker.ProcessUpdate(psi.NextSite(t, 1),
                          streams::ItemUpdate{i % 3, 1});  // heavy: 0, 1, 2
  }
  for (int64_t i = 0; i < 2000; ++i, ++t) {  // noise: ~36 each on 3..58
    tracker.ProcessUpdate(psi.NextSite(t, 1),
                          streams::ItemUpdate{3 + rng.UniformInt(0, 55), 1});
  }
  const auto heavy = tracker.HeavyItems(universe, 500.0);
  ASSERT_EQ(heavy.size(), 3u);
  EXPECT_EQ(heavy[0], 0);
  EXPECT_EQ(heavy[1], 1);
  EXPECT_EQ(heavy[2], 2);
}

TEST(DistributedF2Test, HeavyItemsEmptyWhenThresholdTooHigh) {
  DistributedF2Tracker tracker(2, Options(1000));
  tracker.ProcessUpdate(0, streams::ItemUpdate{5, 1});
  EXPECT_TRUE(tracker.HeavyItems(64, 100.0).empty());
}

TEST(DistributedF2Test, FrequencyOfFullyDeletedItemNearZero) {
  const int64_t n = 1000;
  DistributedF2Tracker tracker(2, Options(4 * n));
  sim::RoundRobinAssignment psi(2);
  int64_t t = 0;
  // Insert item 3 n times at mixed sites, then delete all of them.
  for (int64_t i = 0; i < n; ++i, ++t) {
    tracker.ProcessUpdate(psi.NextSite(t, 1), streams::ItemUpdate{3, 1});
  }
  EXPECT_NEAR(tracker.EstimateFrequency(3), static_cast<double>(n),
              0.15 * static_cast<double>(n));
  for (int64_t i = 0; i < n; ++i, ++t) {
    tracker.ProcessUpdate(psi.NextSite(t, -1), streams::ItemUpdate{3, -1});
  }
  // Only item 3 ever touched the sketch, so its cells return to ~0 (up to
  // the cell counters' tracking slack near the end).
  EXPECT_NEAR(tracker.EstimateFrequency(3), 0.0, 5.0);
}

}  // namespace
}  // namespace nmc::sketch
