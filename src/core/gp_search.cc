#include "core/gp_search.h"

#include <cmath>

#include "common/check.h"

namespace nmc::core {

GpSearch::GpSearch(int64_t horizon_n) {
  static_assert(kEpsilon0 > 0.0 && kEpsilon0 < 1.0);
  NMC_CHECK_GE(horizon_n, 1);
  const double n = std::max<double>(static_cast<double>(horizon_n), 2.0);
  log_term_ = std::log(2.0 * n * n * n);
}

void GpSearch::Observe(int64_t t, double count) {
  if (resolved_) return;
  NMC_CHECK_GE(t, 0);
  if (t < next_checkpoint_) return;  // t = 0 included: checkpoints start at 1
  while (next_checkpoint_ <= t) next_checkpoint_ *= 2;

  // Hoeffding: |S_t - mu*t| <= w_t with probability 1 - 1/n^3 per
  // checkpoint (bounded +-1 updates).
  const double width = std::sqrt(2.0 * static_cast<double>(t) * log_term_);
  if (std::fabs(count) >= (1.0 + 1.0 / kEpsilon0) * width) {
    resolved_ = true;
    mu_hat_ = count / static_cast<double>(t);
    resolution_time_ = t;
  }
}

double GpSearch::mu_hat() const {
  NMC_CHECK(resolved_);
  return mu_hat_;
}

int64_t GpSearch::resolution_time() const {
  NMC_CHECK(resolved_);
  return resolution_time_;
}

}  // namespace nmc::core
