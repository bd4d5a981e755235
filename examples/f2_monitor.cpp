// Distributed F2 monitor with insertions AND deletions (Section 5.1).
//
// Items (e.g. active sessions keyed by user id) are inserted and deleted
// across k frontends; the coordinator continuously tracks the second
// frequency moment F2 = sum_i m_i^2 — a standard skew/self-join-size
// statistic — via a fast AMS sketch whose every cell is a distributed
// non-monotonic counter. Deletions make the cell streams non-monotonic,
// which is exactly what the counter is for.
//
// Build & run:  cmake --build build && ./build/examples/f2_monitor

#include <cmath>
#include <cstdio>
#include <vector>

#include "sim/assignment.h"
#include "sketch/distributed_f2.h"
#include "streams/items.h"

int main() {
  const int64_t n = 40000;
  const int64_t universe = 512;
  const int k = 4;

  // Session churn: Zipf(1.1) arrivals, 30% of updates close an open
  // session; randomly permuted order (the Theorem 3.4 input model).
  const auto updates = nmc::streams::PermutedItemStream(
      nmc::streams::ZipfTurnstileStream(n, universe, 1.1, 0.3, /*seed=*/31),
      /*seed=*/33);
  const auto exact = nmc::streams::ExactF2Prefix(updates, universe);

  nmc::sketch::DistributedF2Options options;
  options.cols = 128;
  options.horizon_n = n;
  options.seed = 35;
  nmc::sketch::DistributedF2Tracker tracker(k, options);
  nmc::sim::UniformRandomAssignment psi(k, /*seed=*/37);

  std::printf("%10s %12s %12s %10s\n", "t", "exact_F2", "tracked_F2",
              "rel_err");
  double worst = 0.0;
  for (int64_t t = 0; t < n; ++t) {
    const auto& u = updates[static_cast<size_t>(t)];
    tracker.ProcessUpdate(psi.NextSite(t, u.sign), u);
    const double truth = static_cast<double>(exact[static_cast<size_t>(t)]);
    if (truth >= 100.0) {
      const double err = std::fabs(tracker.EstimateF2() - truth) / truth;
      worst = std::max(worst, err);
    }
    if ((t + 1) % 8000 == 0) {
      std::printf("%10lld %12.0f %12.0f %10.3f\n",
                  static_cast<long long>(t + 1), truth, tracker.EstimateF2(),
                  std::fabs(tracker.EstimateF2() - truth) / std::max(truth, 1.0));
    }
  }

  // The same tracked cells answer point queries (CountSketch estimator):
  // here, the live session count of the three heaviest users.
  std::printf("\nper-item frequency point queries (same state, no extra "
              "communication):\n");
  std::vector<int64_t> live(static_cast<size_t>(universe), 0);
  for (const auto& u : updates) live[static_cast<size_t>(u.item)] += u.sign;
  for (int64_t item = 0; item < 3; ++item) {
    std::printf("  item %lld: exact %lld, tracked %.0f\n",
                static_cast<long long>(item),
                static_cast<long long>(live[static_cast<size_t>(item)]),
                tracker.EstimateFrequency(item));
  }

  const auto stats = tracker.stats();
  std::printf("\nworst checkpoint relative error : %.3f\n", worst);
  std::printf("messages across all cell counters: %lld (%.1f per update)\n",
              static_cast<long long>(stats.total()),
              static_cast<double>(stats.total()) / static_cast<double>(n));
  std::printf("(each update touches %d sketch rows; forwarding raw updates\n"
              "to a central sketch would cost %lld messages)\n",
              nmc::sketch::DistributedF2Tracker::kRows,
              static_cast<long long>(n));
  return 0;
}
