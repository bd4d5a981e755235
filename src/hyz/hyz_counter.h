#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/geometric_skip.h"
#include "sim/channel.h"
#include "sim/network.h"
#include "sim/protocol.h"

namespace nmc::hyz {

/// Reporting strategy within a round.
enum class HyzMode {
  /// Randomized per-update sampling with the unbiased gap correction
  /// (the counter of [12]; cost ~ (sqrt(k L) + L)/eps per round).
  kSampled,
  /// Deterministic thresholds: a site reports whenever its in-round count
  /// grows by eps*n_r/(2k), leaving total residual < eps*n_r/2 with
  /// certainty (cost ~ 2k/eps per round). This is the flavor of strategy
  /// [12] uses in its large-k regime; cheaper than sampling while
  /// k = O(log(1/delta)).
  kDeterministic,
};

/// Parameters of the HYZ monotonic counter.
struct HyzOptions {
  HyzMode mode = HyzMode::kSampled;
  /// Relative accuracy guarantee.
  double epsilon = 0.1;
  /// Failure probability target; the sampling rate scales with
  /// sqrt(log(2/delta)).
  double delta = 1e-6;
  /// Multiplier on the theoretical sampling rate (tuning constant).
  double rate_constant = 1.0;

  /// Offset added to the tracked count: Estimate() returns
  /// initial_total + (count of increments seen). Used when HYZ is started
  /// mid-stream from an exact snapshot (Phase 2 of the non-monotonic
  /// counter).
  int64_t initial_total = 0;

  /// Fault model of the star network (default: perfect, bit-identical to
  /// the historical reliable network). Under a faulty channel the counter
  /// processes increments one at a time in simulated-tick time, survives
  /// dropped / delayed / duplicated messages (collect rounds are epoch-
  /// tagged and replies carry lifetime totals, so lost replies lose no
  /// counts), and recovers exactness via Resync().
  sim::ChannelConfig channel;

  uint64_t seed = 1;
};

/// The randomized monotonic distributed counter of Huang, Yi and Zhang
/// ("Randomized algorithms for tracking distributed count, frequencies,
/// and ranks", arXiv:1108.3413), reconstructed from its published
/// description. It tracks the number of unit increments across k sites
/// within relative accuracy epsilon w.h.p. at expected communication cost
/// O((sqrt(k)/eps + k) * log n):
///
///   * Rounds: a round begins with the coordinator knowing the exact count
///     n_r (collected with Theta(k) messages) and broadcasting a sampling
///     probability p_r ~ (sqrt(k L) + L) / (eps * n_r), L = log(1/delta)
///     (the additive L term covers the geometric residuals' heavy single-
///     site tail, which dominates for k = O(L)).
///   * Within a round, a site receiving an increment reports its in-round
///     local count with probability p_r. The coordinator's per-site
///     estimator  (last reported count) + 1/p - 1  (0 if the site never
///     reported) is exactly unbiased — the unreported tail is geometric —
///     with variance <= (1-p)/p^2, so the k-site estimate concentrates
///     within eps * n_r.
///   * When the estimate doubles, the coordinator collects exact counts and
///     starts the next round; there are O(log n) rounds.
///
/// Used both standalone (the monotonic special case mu = 1, experiment E11)
/// and as the Phase-2 building block of the non-monotonic counter.
class HyzProtocol : public sim::Protocol {
 public:
  HyzProtocol(int num_sites, const HyzOptions& options);
  ~HyzProtocol() override;

  int num_sites() const override;

  /// `value` must be +1: this is a monotonic counter of unit increments.
  void ProcessUpdate(int site_id, double value) override;

  /// Batched form (every value must be +1): consumes a non-empty prefix,
  /// stopping right after the first increment that emits a message, and
  /// returns the count consumed (see the Protocol::ProcessBatch contract).
  int64_t ProcessBatch(int site_id, std::span<const double> values) override;

  /// Value-free form of ProcessBatch for callers that already know the
  /// run is `count` unit increments (Phase 2 of the non-monotonic
  /// counter): identical semantics without touching the values.
  int64_t ProcessRun(int site_id, int64_t count);

  double Estimate() const override;

  const sim::MessageStats& stats() const override;

  /// Fault recovery (see Protocol::Resync): forces a fresh epoch-tagged
  /// collect round, abandoning any round stuck on lost replies. If the
  /// resync traffic is delivered intact, Estimate() is exact afterwards.
  bool Resync() override;

  /// Taps the network (see sim::Network::SetObserver) — used by the
  /// skip-vs-coins equivalence tests to histogram inter-report gaps.
  void SetMessageObserver(
      std::function<void(const sim::Network::SentMessage&)> observer) {
    network_.SetObserver(std::move(observer));
  }

  /// Current round's sampling probability (exposed for tests/ablations).
  double current_rate() const;
  /// Number of completed round transitions.
  int64_t rounds() const;

 private:
  class Site;
  class Coordinator;

  sim::Network network_;
  // The sites' shared 1/log1p(-p) memo: one log1p per round rate.
  common::InvLogQMemo inv_log_q_;
  std::unique_ptr<Coordinator> coordinator_;
  std::vector<std::unique_ptr<Site>> sites_;
};

}  // namespace nmc::hyz

