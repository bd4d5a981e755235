// E9 — Corollary 5.1: continuous tracking of the second frequency moment
// F2 with decrements over randomly ordered streams, via the fast AMS
// sketch with one non-monotonic counter per cell. Upper bound
// Õ(sqrt(k n)/eps^2), lower bound Omega(min{sqrt(k n)/eps, n}). The
// harness sweeps n and k, reporting communication and the tracked
// estimate's relative error against exact F2 at checkpoints.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/statistics.h"
#include "common/table.h"
#include "sim/assignment.h"
#include "sketch/distributed_f2.h"
#include "streams/items.h"

namespace {

using nmc::bench::Banner;
using nmc::common::Format;

struct F2RunResult {
  int64_t messages = 0;
  double final_rel_error = 0.0;
  double max_checkpoint_rel_error = 0.0;
};

F2RunResult RunF2(int64_t n, int k, uint64_t seed) {
  const int64_t universe = 256;
  const auto updates = nmc::streams::PermutedItemStream(
      nmc::streams::ZipfTurnstileStream(n, universe, 1.1, 0.2, seed),
      seed + 1);
  const auto exact_prefix = nmc::streams::ExactF2Prefix(updates, universe);

  nmc::sketch::DistributedF2Options options;
  options.cols = 64;
  options.horizon_n = n;
  options.seed = seed + 2;
  nmc::sketch::DistributedF2Tracker tracker(k, options);
  nmc::sim::RoundRobinAssignment psi(k);

  F2RunResult result;
  for (int64_t t = 0; t < n; ++t) {
    const auto& u = updates[static_cast<size_t>(t)];
    tracker.ProcessUpdate(psi.NextSite(t, u.sign), u);
    if ((t + 1) % 256 == 0 || t + 1 == n) {
      const double exact =
          static_cast<double>(exact_prefix[static_cast<size_t>(t)]);
      if (exact >= 100.0) {
        const double err = std::fabs(tracker.EstimateF2() - exact) / exact;
        result.max_checkpoint_rel_error =
            std::max(result.max_checkpoint_rel_error, err);
        if (t + 1 == n) result.final_rel_error = err;
      }
    }
  }
  result.messages = tracker.stats().total();
  return result;
}

void SweepN() {
  std::printf("\n-- F2 tracking: messages and accuracy vs n (k = 4) --\n");
  nmc::common::Table table({"n", "messages", "msgs/n", "final_rel_err",
                            "max_ckpt_rel_err"});
  std::vector<double> ns, costs;
  for (int64_t n : {4000, 16000, 64000}) {
    nmc::common::RunningStat messages;
    double final_err = 0.0, max_err = 0.0;
    for (uint64_t trial = 0; trial < 2; ++trial) {
      const auto r = RunF2(n, 4, 100 * trial + 7);
      messages.Add(static_cast<double>(r.messages));
      final_err = std::max(final_err, r.final_rel_error);
      max_err = std::max(max_err, r.max_checkpoint_rel_error);
    }
    table.AddRow({Format(n), Format(messages.mean(), 0),
                  Format(messages.mean() / static_cast<double>(n), 2),
                  Format(final_err, 3), Format(max_err, 3)});
    ns.push_back(static_cast<double>(n));
    costs.push_back(messages.mean());
  }
  table.Print();
  nmc::bench::PrintFit("messages", ns, costs);
  std::printf("theory: sublinear growth toward exponent 1/2; the accuracy\n"
              "combines per-cell tracking error (~2 eps) with the sketch's\n"
              "own median-of-rows error (~sqrt(2/cols))\n");
}

void SweepK() {
  std::printf("\n-- F2 tracking: messages vs k (n = 32000) --\n");
  nmc::common::Table table({"k", "messages", "max_ckpt_rel_err"});
  std::vector<double> ks, costs;
  for (int k : {1, 2, 4, 8}) {
    const auto r = RunF2(32000, k, 31);
    table.AddRow({Format(static_cast<int64_t>(k)), Format(r.messages),
                  Format(r.max_checkpoint_rel_error, 3)});
    ks.push_back(static_cast<double>(k));
    costs.push_back(static_cast<double>(r.messages));
  }
  table.Print();
  nmc::bench::PrintFit("messages vs k", ks, costs);
  std::printf("theory: growth ~sqrt(k) until the per-cell straight-stage\n"
              "floor dominates\n");
}

}  // namespace

int main(int argc, char** argv) {
  nmc::bench::InitBench(argc, argv, "bench_e9_f2",
                        /*applies_channel=*/false);
  Banner("E9 — Corollary 5.1: F2 tracking with decrements (fast AMS + counters)",
         "Õ(sqrt(k n)/eps^2) messages; LB Omega(min{sqrt(k n)/eps, n})");
  SweepN();
  SweepK();
  return nmc::bench::FinishBench();
}
