// Streaming distributed Bayesian linear regression (Section 5.2).
//
// Training examples (x, y) stream into k workers of an ML platform; the
// coordinator maintains an approximate posterior N(m_t, S_t) over the
// model weights w at all times. Each entry of the precision matrix
// S_t^{-1} = S0^{-1} + beta*A^T A and of b_t = beta*A^T y is a bounded,
// randomly ordered, non-monotonic stream — one distributed counter each —
// so the whole posterior is tracked with sublinear communication.
//
// Build & run:  cmake --build build && ./build/examples/bayes_regression

#include <cstdio>

#include "regression/bayes_linreg.h"
#include "regression/distributed_linreg.h"
#include "sim/assignment.h"
#include "streams/regression_data.h"

int main() {
  const int64_t n = 30000;
  const int dim = 4;
  const int k = 4;

  nmc::streams::RegressionDataOptions data_options;
  data_options.dim = dim;
  data_options.seed = 51;
  const auto data = nmc::streams::GenerateRegressionData(n, data_options);

  nmc::regression::BayesLinRegOptions model;
  model.dim = dim;

  nmc::regression::ExactBayesLinReg exact(model);  // centralized reference

  nmc::regression::DistributedLinRegOptions tracker_options;
  tracker_options.model = model;
  tracker_options.horizon_n = n;
  tracker_options.seed = 53;
  nmc::regression::DistributedLinRegTracker tracker(k, tracker_options);

  nmc::sim::UniformRandomAssignment psi(k, /*seed=*/55);
  std::printf("%8s %26s %26s\n", "t", "tracked posterior mean",
              "exact posterior mean");
  for (int64_t t = 0; t < n; ++t) {
    const auto& s = data.samples[static_cast<size_t>(t)];
    exact.Update(s.x, s.y);
    tracker.ProcessUpdate(psi.NextSite(t, s.y), s.x, s.y);
    if ((t + 1) % 10000 == 0) {
      nmc::regression::Vector tracked_mean, exact_mean;
      if (tracker.PosteriorMean(&tracked_mean) &&
          exact.PosteriorMean(&exact_mean)) {
        std::printf("%8lld [%6.3f %6.3f %6.3f %6.3f] [%6.3f %6.3f %6.3f %6.3f]\n",
                    static_cast<long long>(t + 1), tracked_mean[0],
                    tracked_mean[1], tracked_mean[2], tracked_mean[3],
                    exact_mean[0], exact_mean[1], exact_mean[2],
                    exact_mean[3]);
      }
    }
  }

  std::printf("\ntrue generating weights: [%6.3f %6.3f %6.3f %6.3f]\n",
              data.true_weights[0], data.true_weights[1],
              data.true_weights[2], data.true_weights[3]);
  nmc::regression::Vector tracked_mean, exact_mean;
  tracker.PosteriorMean(&tracked_mean);
  exact.PosteriorMean(&exact_mean);
  std::printf("posterior-mean gap (tracked vs exact): %.4f\n",
              nmc::regression::NormDiff(tracked_mean, exact_mean));
  std::printf("messages: %lld over %d counters (%.1f per training example;\n"
              "shipping raw examples would cost %lld vector messages)\n",
              static_cast<long long>(tracker.stats().total()),
              dim * (dim + 1) / 2 + dim,
              static_cast<double>(tracker.stats().total()) /
                  static_cast<double>(n),
              static_cast<long long>(n));
  return 0;
}
