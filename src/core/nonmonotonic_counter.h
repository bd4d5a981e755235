#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/geometric_skip.h"
#include "core/gp_search.h"
#include "core/sampling.h"
#include "hyz/hyz_counter.h"
#include "sim/channel.h"
#include "sim/network.h"
#include "sim/protocol.h"

namespace nmc::core {

/// Whether the counter may assume anything about the drift mu = E[X].
enum class DriftMode {
  /// Phase 1 only: the Section 3.1/3.3/3.4 algorithm (zero-drift i.i.d.,
  /// random permutation, fBm inputs — none of which let the algorithm
  /// exploit a drift).
  kZeroDrift,
  /// The full Section 3.2 algorithm for i.i.d. ±1 updates with unknown
  /// drift: conservative sampling guard + GPSearch in the background +
  /// switch to two HYZ monotonic counters once the drift resolves.
  /// Requires every update to be exactly +1 or -1.
  kUnknownUnitDrift,
};

/// Ablation control for the two Phase-1 communication stages.
enum class StagePolicy {
  /// Default: switch to SBC exactly when it is the cheaper pattern, i.e.
  /// (3k+1) * sampling_rate(S_hat) <= 2. Up to the log factor this is the
  /// paper's (eps*|S_hat|)^2 >= k rule, but it avoids the band where SBC
  /// would sample at rate ~1 and pay Theta(k) per update.
  kAuto,
  /// The paper's literal Õ-level boundary (eps*|S_hat|)^delta >= k (E12
  /// ablation).
  kPaperBoundary,
  /// Never switch to StraightSync (shows why the switch matters: near zero
  /// every update triggers a Theta(k) sync).
  kSbcOnly,
  /// Never use SBC (the trivial 2-messages-per-update protocol).
  kStraightOnly,
};

/// Parameters of the Non-monotonic Counter. Defaults are tuned so that
/// empirical violation rates stay well below 1/n (the paper's constants,
/// noted per field and constant, are proof-friendly upper bounds).
struct CounterOptions {
  /// Relative tracking accuracy epsilon > 0.
  double epsilon = 0.1;

  /// Stream horizon n. The sampling laws' log(n) factors need it; the
  /// standard doubling trick would remove the requirement at a constant
  /// factor, which we keep out of scope for fidelity to eq. (1)/(2).
  int64_t horizon_n = 1;

  /// Eq. (1) constants: rate = min{alpha log^beta(n) / (eps s)^2, 1}.
  /// beta = 2 is structural, not slack: the chance a sync interval ends in
  /// error is E[e^{-p T}] ~ e^{-eps|s| sqrt(2p)} (Laplace transform of the
  /// first passage out of the eps-ball), so p (eps s)^2 = alpha log^2 n
  /// drives it to n^{-sqrt(2 alpha)}. alpha = 2 gives ~n^{-2} per sync
  /// (the paper's alpha > 9/2 targets a larger safety margin); the E12
  /// ablation measures what happens for beta in {0, 1, 2}.
  double alpha = 2.0;
  double beta = 2.0;

  /// If > 0, use the fBm law eq. (2) with this exponent delta (1 < delta
  /// <= 2, valid for Hurst H <= 1/delta) instead of eq. (1). The law's
  /// constant alpha_delta is fixed (kFbmAlpha in the .cc).
  double fbm_delta = 0.0;

  DriftMode drift_mode = DriftMode::kZeroDrift;

  /// Conservative max(., c log n/(eps t)) term in the Phase-1 sampling
  /// rate (Section 3.2). It is what keeps the counter correct when the
  /// input drifts — including biased multisets in the permutation model,
  /// whose Theorem 3.4 cost carries the matching +log^3 n term — at a
  /// total cost of only O(k log^2(n)/eps). Disable only for the E12
  /// ablation or for inputs known to be driftless. The guard's constant c
  /// is fixed (kDriftGuardC in the .cc).
  bool enable_drift_guard = true;

  /// Allows disabling the Phase-2 switch while keeping GPSearch running
  /// (E12 ablation). Phase 2's accuracy and failure probability are fixed
  /// (kPhase2EpsFraction and kPhase2DeltaScale in the .cc).
  bool enable_phase2 = true;
  /// If true (default), Phase 2 picks the cheaper HYZ variant per round
  /// cost — deterministic thresholds (~2k/eps_h) while k = O(log(1/delta)),
  /// sampled (~(sqrt(kL)+L)/eps_h) beyond — the crossover the E11 bench
  /// measures. False always uses the sampled variant of [12].
  bool phase2_auto_hyz_mode = true;

  StagePolicy stage_policy = StagePolicy::kAuto;
  /// Multiplier on the SBC side of the kAuto cost comparison: values > 1
  /// bias toward StraightSync, < 1 toward SBC. Ablation knob; 1 = neutral.
  double stage_boundary_factor = 1.0;

  /// Extension (see README "findings"): rescale the diffusive sampling
  /// term by the observed mean square of the updates. Eq. (1) is
  /// calibrated for ±1 steps; steps of variance m2 need 1/m2 times longer
  /// to escape the eps-ball, so for small-valued streams the unscaled law
  /// oversamples all the way to Theta(n). No effect on ±1 streams.
  bool variance_adaptive = false;

  /// Carried state for restarts (used by HorizonFreeCounter): the counter
  /// behaves as if `initial_updates` updates summing to `initial_sum`
  /// (with sum of squares `initial_sum_sq`) had already been processed and
  /// synchronized.
  int64_t initial_updates = 0;
  double initial_sum = 0.0;
  double initial_sum_sq = 0.0;

  /// Fault model of the Phase-1 star network (and, forked, of the Phase-2
  /// HYZ pair). The default kPerfect installs nothing and is bit-identical
  /// to the historical reliable network. Under a faulty channel the counter
  /// processes updates one at a time in simulated-tick time (fast-forward
  /// assumes silent prefixes stay silent, which delayed delivery breaks),
  /// tolerates dropped / delayed / duplicated messages without aborting,
  /// and recovers exactness via Resync().
  sim::ChannelConfig channel;

  uint64_t seed = 1;
};

/// Diagnostics exposed for benches and tests.
struct CounterDiagnostics {
  bool phase2_active = false;
  double mu_hat = 0.0;
  int64_t phase2_switch_time = 0;
  int64_t sbc_syncs = 0;
  int64_t straight_reports = 0;
  int64_t stage_switches = 0;
  bool in_sbc_stage = false;
  /// Resync() rounds initiated (fault recovery; 0 on perfect channels).
  int64_t resyncs = 0;
};

/// The Non-monotonic Counter of Liu, Radunovic and Vojnovic (PODS 2012):
/// continuous tracking of a non-monotonic sum over k distributed sites
/// within relative accuracy epsilon, at expected communication cost
/// Õ(min{ sqrt(k)/(eps|mu|), sqrt(kn)/eps, n }) under i.i.d., randomly
/// permuted, or fractional-Brownian inputs.
///
/// Phase 1 alternates two communication patterns driven by the global
/// estimate S_hat that the coordinator broadcasts at every sync:
///   * SBC (sampling & broadcasting) when (eps S_hat)^2 >= k: on each
///     update the receiving site flips a coin with the eq. (1)/(2) rate;
///     heads trigger a full sync (signal + collect broadcast + k reports +
///     result broadcast = 3k + 1 messages).
///   * StraightSync when (eps S_hat)^2 < k: every update is forwarded and
///     acknowledged (2 messages), so the coordinator is exact while the
///     count sits in the error-sensitive region near zero.
/// With k = 1 the protocol reduces to the paper's single-site form: the
/// site samples against its own exact count and each head costs a single
/// message.
///
/// In kUnknownUnitDrift mode, GPSearch watches the synced counts; once the
/// drift resolves to mu_hat the coordinator snapshots the exact positive /
/// negative update counts and Phase 2 serves the difference of two HYZ
/// monotonic counters with accuracy Theta(eps |mu_hat|).
class NonMonotonicCounter final : public sim::Protocol {
 public:
  NonMonotonicCounter(int num_sites, const CounterOptions& options);
  ~NonMonotonicCounter() override;

  int num_sites() const override;

  /// Feeds one update (value in [-1, 1]; exactly ±1 in drift mode).
  void ProcessUpdate(int site_id, double value) override;

  /// Feeds a same-site run: consumes a non-empty prefix of `values` —
  /// stopping right after the first update that triggers communication —
  /// and returns the count consumed (see the Protocol::ProcessBatch
  /// contract). The geometric skip sampler makes the silent prefix of a
  /// run cost O(1) RNG draws and rate evaluations instead of one per
  /// update.
  int64_t ProcessBatch(int site_id, std::span<const double> values) override;

  /// Feeds an interleaved chunk in one call (see the
  /// Protocol::ProcessChunk contract). In Phase 1 on the perfect channel
  /// with k > 1 it walks psi's runs without scanning them: a single-update
  /// run at a site in SBC whose cached gap has not run out is absorbed in
  /// place, and any other run goes through the site's ConsumeRun, exactly
  /// as in ProcessBatch. It returns after the first run that sends a
  /// message. Phase 2, faulty channels and k = 1 take the default.
  sim::ChunkStop ProcessChunk(std::span<const sim::SiteRun> runs,
                              std::span<const double> values) override;

  double Estimate() const override;

  const sim::MessageStats& stats() const override;

  /// Fault recovery (see Protocol::Resync): starts a fresh epoch-tagged
  /// collect round (single message in the single-site form; the HYZ pair
  /// is resynced in Phase 2), abandoning any round stuck on lost replies.
  /// If the resync traffic is delivered intact, Estimate() is exact
  /// afterwards.
  bool Resync() override;

  CounterDiagnostics diagnostics() const;

  /// Forces the coordinator's state to be exact: a no-op in StraightSync
  /// (it already is), one message in the single-site form, one full sync
  /// (3k+1 messages) in SBC. Phase 1 only. Used by HorizonFreeCounter to
  /// snapshot state across horizon restarts.
  void ForceSync();

  /// The number of updates the coordinator knows of (exact immediately
  /// after ForceSync; Estimate() is then the exact sum).
  int64_t SyncedUpdates() const;

  /// The coordinator's view of the sum of squared updates (exact after
  /// ForceSync); carried across restarts for variance_adaptive mode.
  double SyncedSumSquares() const;

  /// Taps the Phase-1 network (see sim::Network::SetObserver) — tracing
  /// and golden-transcript tests. Phase-2 HYZ traffic is not observed.
  void SetMessageObserver(
      std::function<void(const sim::Network::SentMessage&)> observer) {
    network_.SetObserver(std::move(observer));
  }

 private:
  class Site;
  class Coordinator;

  void ActivatePhase2();

  CounterOptions options_;
  sim::Network network_;
  // The sites' SBC walk term and 1/log1p(-p), shared: after a kState all
  // k sites evaluate the same law at the same rate, so one site computes
  // it and the others hit the memo.
  RateCache walk_cache_;
  common::InvLogQMemo inv_log_q_;
  std::unique_ptr<Coordinator> coordinator_;
  std::vector<std::unique_ptr<Site>> sites_;

  // Phase 2: monotonic counters over positive / negative updates.
  std::unique_ptr<hyz::HyzProtocol> positive_counter_;
  std::unique_ptr<hyz::HyzProtocol> negative_counter_;
  int64_t phase2_switch_time_ = 0;

  mutable sim::MessageStats combined_stats_;
};

}  // namespace nmc::core

