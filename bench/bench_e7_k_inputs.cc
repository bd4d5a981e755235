// E7 — Lemma 4.4: the "tracking k inputs" game. k sites hold one uniform
// ±1 value each; a coordinator that samples z of them must declare the
// sign of the total whenever |total| >= c*sqrt(k). The lemma proves any
// protocol with z = o(k) errs with constant probability — this harness
// measures the optimal sampler's error rate across sampled fractions.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/table.h"
#include "core/lower_bound.h"

namespace {

using nmc::bench::Banner;
using nmc::common::Format;

void SweepSampledFraction() {
  std::printf("\n-- error rate of the optimal z-sample decision rule --\n");
  const int64_t trials = 40000;
  const double c = 1.0;
  nmc::common::Table table({"k", "z", "z/k", "decided_frac", "error_rate"});
  for (int64_t k : {64, 256, 1024}) {
    for (int64_t z : {static_cast<int64_t>(0), k / 32, k / 8, k / 2, k}) {
      const auto result = nmc::core::RunKInputsGame(
          k, z, c, trials, 9000 + static_cast<uint64_t>(k + z));
      table.AddRow(
          {Format(k), Format(z),
           Format(static_cast<double>(z) / static_cast<double>(k), 3),
           Format(static_cast<double>(result.decided_trials) /
                      static_cast<double>(result.trials), 3),
           Format(result.error_rate(), 4)});
    }
  }
  table.Print();
  std::printf(
      "theory: the error rate depends only on the fraction z/k (constant\n"
      "for any z = o(k), vanishing only as z -> Theta(k)); this is what\n"
      "forces Theta(k) messages per counted phase in Theorem 4.5\n");
}

void SweepThreshold() {
  std::printf("\n-- effect of the decision threshold c (k = 256, z = k/8) --\n");
  const int64_t k = 256;
  const int64_t trials = 40000;
  nmc::common::Table table({"c", "decided_frac", "error_rate"});
  for (double c : {0.5, 1.0, 2.0, 3.0}) {
    const auto result = nmc::core::RunKInputsGame(
        k, k / 8, c, trials, 9500 + static_cast<uint64_t>(c * 10));
    table.AddRow(
        {Format(c, 1),
         Format(static_cast<double>(result.decided_trials) /
                    static_cast<double>(result.trials), 3),
         Format(result.error_rate(), 4)});
  }
  table.Print();
  std::printf("theory: larger c makes decisions rarer and easier, but for\n"
              "any constant c the o(k)-sample error stays Omega(1)\n");
}

}  // namespace

int main(int argc, char** argv) {
  nmc::bench::InitBench(argc, argv, "bench_e7_k_inputs",
                        /*applies_channel=*/false);
  Banner("E7 — Lemma 4.4: the tracking-k-inputs communication game",
         "deciding sign(total) when |total| >= c*sqrt(k) needs Theta(k) msgs");
  SweepSampledFraction();
  SweepThreshold();
  return nmc::bench::FinishBench();
}
