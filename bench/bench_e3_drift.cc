// E3 — Theorem 3.3: unknown drift mu. The full algorithm (conservative
// Phase 1 + GPSearch + Phase-2 HYZ pair) costs
// Õ(min{ sqrt(k)/(eps|mu|), sqrt(k n)/eps, n }): flat in the
// |mu| = O(1/sqrt(n)) regime, then decreasing roughly as 1/|mu| until the
// Phase-1 overhead floor. The sweep also reports when GPSearch resolves
// (theory: Theta(log n / (mu eps)^2)) and the mu_hat it reports.

#include <cmath>
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "common/statistics.h"
#include "common/table.h"
#include "runtime/run.h"
#include "sim/assignment.h"
#include "streams/bernoulli.h"

namespace {

using nmc::bench::Banner;
using nmc::common::Format;

void SweepMu() {
  const int64_t n = 1 << 18;
  const double epsilon = 0.25;
  const int k = 4;
  const int trials = 3;
  std::printf("\n-- messages vs drift mu (n = 2^18, k = 4, eps = 0.25) --\n");
  nmc::common::Table table({"mu", "mu*sqrt(n)", "messages", "switch_t",
                            "mu_hat", "violations", "max_rel_err"});
  for (double mu : {0.0, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.125,
                    0.25, 0.5, 1.0}) {
    nmc::common::RunningStat messages, switch_time, mu_hat;
    int violations = 0;
    double max_rel_error = 0.0;
    for (int trial = 0; trial < trials; ++trial) {
      const auto stream = nmc::streams::BernoulliStream(
          n, mu, 500 + static_cast<uint64_t>(trial));
      nmc::core::CounterOptions options;
      options.epsilon = epsilon;
      options.horizon_n = n;
      options.drift_mode = nmc::core::DriftMode::kUnknownUnitDrift;
      options.seed = 600 + static_cast<uint64_t>(trial);
      nmc::core::NonMonotonicCounter counter(k, options);
      nmc::sim::RoundRobinAssignment psi(k);
      nmc::runtime::RunConfig config;
      config.protocol = &counter;
      config.stream = &stream;
      config.psi = &psi;
      config.tracking.epsilon = epsilon;
      const auto result = nmc::runtime::RunWithTransport(
                              nmc::runtime::TransportKind::kSim, config)
                              .tracking;
      messages.Add(static_cast<double>(result.messages));
      const auto diag = counter.diagnostics();
      if (diag.phase2_active) {
        switch_time.Add(static_cast<double>(diag.phase2_switch_time));
        mu_hat.Add(diag.mu_hat);
      }
      if (result.any_violation()) ++violations;
      max_rel_error = std::max(max_rel_error, result.max_rel_error);
    }
    table.AddRow(
        {Format(mu, 3), Format(mu * std::sqrt(static_cast<double>(n)), 1),
         Format(messages.mean(), 0),
         switch_time.count() > 0 ? Format(switch_time.mean(), 0) : "-",
         mu_hat.count() > 0 ? Format(mu_hat.mean(), 3) : "-",
         Format(static_cast<int64_t>(violations)),
         Format(max_rel_error, 4)});
  }
  table.Print();
  std::printf(
      "theory: crossover at mu ~ 1/sqrt(n) (= %.4f): below it the cost sits\n"
      "at the driftless sqrt(k n)/eps level; above it Phase 2 engages at\n"
      "t ~ log n/(mu eps0)^2 and the cost decreases toward the Phase-1\n"
      "overhead floor (guard syncs ~ k log^2 n / eps + HYZ rounds)\n",
      1.0 / std::sqrt(static_cast<double>(n)));
}

void Phase2SwitchScaling() {
  std::printf("\n-- GPSearch resolution time vs mu (k = 4) --\n");
  const int64_t n = 1 << 19;
  const int k = 4;
  nmc::common::Table table({"mu", "switch_t", "log(n)/mu^2"});
  std::vector<double> inv_mu2, times;
  for (double mu : {0.125, 0.25, 0.5, 1.0}) {
    const auto stream = nmc::streams::BernoulliStream(n, mu, 7);
    nmc::core::CounterOptions options;
    options.epsilon = 0.25;
    options.horizon_n = n;
    options.drift_mode = nmc::core::DriftMode::kUnknownUnitDrift;
    options.seed = 8;
    nmc::core::NonMonotonicCounter counter(k, options);
    nmc::sim::RoundRobinAssignment psi(k);
    nmc::runtime::RunConfig config;
    config.protocol = &counter;
    config.stream = &stream;
    config.psi = &psi;
    config.tracking.epsilon = 0.25;
    (void)nmc::runtime::RunWithTransport(nmc::runtime::TransportKind::kSim,
                                         config);
    const auto diag = counter.diagnostics();
    const double theory =
        std::log(static_cast<double>(n)) / (mu * mu);
    table.AddRow({Format(mu, 3),
                  diag.phase2_active
                      ? Format(static_cast<int64_t>(diag.phase2_switch_time))
                      : "-",
                  Format(theory, 0)});
    if (diag.phase2_active) {
      inv_mu2.push_back(1.0 / (mu * mu));
      times.push_back(static_cast<double>(diag.phase2_switch_time));
    }
  }
  table.Print();
  if (inv_mu2.size() >= 2) {
    nmc::bench::PrintFit("switch time vs 1/mu^2", inv_mu2, times);
    std::printf("theory: exponent ~ 1 (resolution at Theta(log n/(mu eps0)^2),\n"
                "quantized by the geometric checkpoint grid)\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  nmc::bench::InitBench(argc, argv, "bench_e3_drift",
                        /*applies_channel=*/false);
  Banner("E3 — Theorem 3.3: k-site counter with unknown drift",
         "messages = Õ(min{sqrt(k)/(eps|mu|), sqrt(k n)/eps, n}) + Õ(k)");
  SweepMu();
  Phase2SwitchScaling();
  return nmc::bench::FinishBench();
}
