// E13 — the quantitative failure model behind eq. (1). The per-sync error
// probability is exactly E[(1-p)^T] for T the two-sided exit time of the
// count from the eps-ball; this harness shows the closed form, the exact
// DP, and Monte Carlo agreeing, then evaluates the failure the default
// alpha/beta (and the paper's alpha > 9/2) imply across n — the analysis
// that justifies the constants used everywhere else in the suite, and the
// reason the beta = 1 "cheaper" variant in E12 visibly violates.

#include <cmath>
#include <cstdio>

#include "analysis/first_passage.h"
#include "bench/bench_util.h"
#include "common/table.h"

namespace {

using nmc::bench::Banner;
using nmc::common::Format;
using nmc::common::FormatSci;

void ThreeWayAgreement() {
  std::printf("\n-- per-sync failure: closed form vs exact DP vs Monte Carlo "
              "--\n");
  nmc::common::Table table({"b", "p", "closed_form", "exact_dp",
                            "monte_carlo"});
  for (int64_t b : {10, 30, 100}) {
    for (double a : {2.0, 8.0}) {
      const double p = a / static_cast<double>(b * b);
      const double closed = nmc::analysis::SyncFailureClosedForm(b, p);
      const double dp = nmc::analysis::SyncFailureFromDp(b, 0.0, p, 2000000);
      const double mc =
          nmc::analysis::SyncFailureMonteCarlo(b, 0.0, p, 400000, 11);
      table.AddRow({Format(b), FormatSci(p), FormatSci(closed), FormatSci(dp),
                    FormatSci(mc)});
    }
  }
  table.Print();
  std::printf("theory: failure = 1/cosh(b*acosh(1/(1-p))) ~ 2 e^{-b sqrt(2p)}\n"
              "— three independent computations agree to sampling error\n");
}

void ExitTimeMoments() {
  std::printf("\n-- exit-time mean: E[T] = b^2 (symmetric), ~b/mu (drifted) "
              "--\n");
  nmc::common::Table table({"b", "mu", "E[T] (exact DP)", "b^2", "b/mu"});
  for (int64_t b : {10, 30}) {
    for (double mu : {0.0, 0.1, 0.5}) {
      const double mean =
          nmc::analysis::ExitTimeMean(b, mu, 200 * b * b);
      table.AddRow({Format(b), Format(mu, 2), Format(mean, 1),
                    Format(static_cast<int64_t>(b * b)),
                    mu > 0.0 ? Format(static_cast<double>(b) / mu, 1) : "-"});
    }
  }
  table.Print();
  std::printf("theory: the drift turns the b^2 diffusive exit into a b/mu\n"
              "ballistic one — the gap the Section 3.2 guard must cover\n");
}

void ImpliedFailureAcrossN() {
  std::printf("\n-- eq. (1) per-sync failure across n and (alpha, beta) --\n");
  nmc::common::Table table({"n", "a=2,b=2 (ours)", "a=4.5,b=2 (paper)",
                            "a=2,b=1", "a=2,b=0", "budget 1/n^2"});
  for (int64_t n : {1 << 12, 1 << 16, 1 << 20}) {
    // Evaluate at the radius where eq. (1)'s rate is ~1/8 — the start of
    // the sampled regime, which is where failures concentrate.
    const double log_n = std::log(static_cast<double>(n));
    const int64_t radius = static_cast<int64_t>(4.0 * log_n);
    table.AddRow(
        {Format(n),
         FormatSci(nmc::analysis::Eq1FailureAtRadius(radius, 2.0, 2.0, n)),
         FormatSci(nmc::analysis::Eq1FailureAtRadius(radius, 4.5, 2.0, n)),
         FormatSci(nmc::analysis::Eq1FailureAtRadius(radius, 2.0, 1.0, n)),
         FormatSci(nmc::analysis::Eq1FailureAtRadius(radius, 2.0, 0.0, n)),
         FormatSci(1.0 / (static_cast<double>(n) * static_cast<double>(n)))});
  }
  table.Print();
  std::printf(
      "theory: beta = 2 keeps the failure at ~n^{-sqrt(2 alpha)} — within\n"
      "the 1/n^2 per-event budget at alpha = 2 and far below it at the\n"
      "paper's alpha > 9/2; beta <= 1 decays only quasi-polynomially and\n"
      "is exactly what E12's beta ablation shows violating at runtime\n");
}

}  // namespace

int main(int argc, char** argv) {
  nmc::bench::InitBench(argc, argv, "bench_e13_failure_model",
                        /*applies_channel=*/false);
  Banner("E13 — the sampling law's failure model, computed exactly",
         "per-sync failure = E[(1-p)^T], T the eps-ball exit time");
  ThreeWayAgreement();
  ExitTimeMoments();
  ImpliedFailureAcrossN();
  return nmc::bench::FinishBench();
}
