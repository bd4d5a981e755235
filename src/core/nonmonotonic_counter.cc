#include "core/nonmonotonic_counter.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/batch_ops.h"
#include "common/batch_rng.h"
#include "common/check.h"
#include "common/geometric_skip.h"
#include "common/rng.h"
#include "core/sampling.h"

namespace nmc::core {

namespace {

enum MessageType {
  kSyncRequest = 1,    // site -> coord: SBC coin came up heads
  kCollect = 2,        // coord -> all: request local totals
  kCollectReply = 3,   // site -> coord: u = #updates, a = sum, b = sum sq
  kState = 4,          // coord -> site(s): a = S_hat, u = t_hat, v = stage,
                       //                   b = variance rate scale
  kStraightReport = 5, // site -> coord: u = #updates, a = sum, b = sum sq
  kExactReport = 6,    // site -> coord (k == 1 fast path): same payload
  kPhase2 = 7,         // coord -> all: switch to the HYZ pair
};

/// Eq. (2) constant alpha_delta (paper: c(2(c+1))^{delta/2}, c > 3/2).
constexpr double kFbmAlpha = 2.0;

/// Drift guard rate = c log(n)/(eps t): a drift-dominated escape takes
/// ~eps*t steps, so the per-window failure is ~n^{-c}; c = 2 matches the
/// 1/n^2 per-event budget of the walk law.
constexpr double kDriftGuardC = 2.0;

/// Phase-2 HYZ counters run at eps_h = max(kPhase2EpsFraction * eps *
/// |mu_hat|, 1e-5): the error budget eps_h * t must fit in eps * |S_t|
/// ~= eps * |mu| * t.
constexpr double kPhase2EpsFraction = 0.25;

/// Phase-2 HYZ failure probability kPhase2DeltaScale / n^2 (paper:
/// Theta(1/n^2)).
constexpr double kPhase2DeltaScale = 1.0;

constexpr int64_t kStageStraight = 0;
constexpr int64_t kStageSbc = 1;

/// Fraction of |s| a single-site fast-forward chunk may span: the
/// dominating rate is evaluated at |s| * (1 - 1/kChunkDivisor), so the
/// acceptance probability of a thinned candidate stays >=
/// ((kChunkDivisor-1)/kChunkDivisor)^2 ~ 0.77 while a chunk restart is
/// amortized over |s|/kChunkDivisor updates.
constexpr double kChunkDivisor = 8.0;

// Rate scale from the mean square of the updates seen so far. The eq. (1)
// first-passage calibration assumes ±1 steps; steps of variance m2 take
// 1/m2 times longer to cover the same distance, so the rate may be scaled
// down by m2 (kept conservative with a 2x margin, and never scaled up).
double VarianceScale(const CounterOptions& options, double sum_sq,
                     int64_t updates) {
  if (!options.variance_adaptive || updates <= 0) return 1.0;
  const double mean_sq = sum_sq / static_cast<double>(updates);
  return std::clamp(2.0 * mean_sq, 1e-9, 1.0);
}

// The Phase-1 sampling rate a site evaluates against the shared estimate.
// `scale` (in (0, 1], from VarianceScale) rescales the diffusive term; the
// drift guard is time-based and therefore scale-free. `cache` memoizes the
// walk/fBm term for call sites whose estimate is frozen between broadcasts
// (bit-identical to recomputation).
double Phase1Rate(const CounterOptions& options, double estimate,
                  int64_t t_estimate, double scale,
                  RateCache* cache = nullptr) {
  // Folding the scale into epsilon keeps the min{., 1} clamps intact:
  // scale * alpha log^b / (eps s)^2 == alpha log^b / (eps' s)^2 with
  // eps' = eps / sqrt(scale) (delta-th root in fBm mode). scale == 1.0
  // (every non-variance-adaptive run) short-circuits the pow/sqrt, which
  // is exact: x / sqrt(1.0) == x / pow(1.0, y) == x.
  double rate;
  if (options.fbm_delta > 0.0) {
    const double eps_eff =
        scale == 1.0
            ? options.epsilon
            // runs only in variance-adaptive runs (scale != 1.0) when the scale actually changed; the resulting rate is memoized in the RateCache
            : options.epsilon / std::pow(scale, 1.0 / options.fbm_delta);
    const auto compute = [&] {
      return FbmRate(estimate, eps_eff, options.horizon_n, options.fbm_delta,
                     kFbmAlpha);
    };
    rate = cache != nullptr ? cache->Get(estimate, eps_eff, compute)
                            : compute();
  } else {
    const double eps_eff =
        scale == 1.0 ? options.epsilon : options.epsilon / std::sqrt(scale);
    const auto compute = [&] {
      return RandomWalkRate(estimate, eps_eff, options.horizon_n,
                            options.alpha, options.beta);
    };
    rate = cache != nullptr ? cache->Get(estimate, eps_eff, compute)
                            : compute();
  }
  if (options.enable_drift_guard) {
    rate = std::max(rate, DriftGuardRate(t_estimate, options.epsilon,
                                         options.horizon_n, kDriftGuardC));
  }
  return rate;
}

}  // namespace

/// Site-side state machine of Phase 1.
class NonMonotonicCounter::Site : public sim::SiteNode {
 public:
  /// `walk_cache` and `inv_log_q` are the protocol's, shared by all its
  /// sites: after a kState every site prices the same sampling law.
  Site(int site_id, int num_sites, const CounterOptions& options,
       sim::Network* network, common::Rng rng, RateCache* walk_cache,
       common::InvLogQMemo* inv_log_q)
      : site_id_(site_id),
        num_sites_(num_sites),
        options_(options),
        network_(network),
        rng_(rng),
        // Log-tail feed for the skip sampler, seeded from one u64 of rng_.
        batch_rng_(rng_.NextU64()),
        skip_(&batch_rng_, inv_log_q),
        walk_cache_(walk_cache) {
    if (num_sites_ == 1) {
      // The single site holds the entire history, including any carried
      // state from a previous horizon epoch.
      local_updates_ = options_.initial_updates;
      local_sum_ = options_.initial_sum;
      local_sum_sq_ = options_.initial_sum_sq;
    }
  }

  /// Consumes a prefix of `values` (>= 1 update), stopping immediately
  /// after the first update that emits a message; returns the count
  /// consumed. ProcessUpdate is the count == 1 special case, so batched
  /// and per-update pumping share one state machine and are bit-identical
  /// for every slicing of the stream into runs.
  int64_t ConsumeRun(std::span<const double> values) {
    NMC_CHECK(!phase2_);  // Phase-2 updates are routed to the HYZ pair
    NMC_CHECK(!values.empty());

    if (num_sites_ == 1) return ConsumeSingleSite(values);

    if (!in_sbc_stage_) {
      // StraightSync: every update is forwarded, so runs cannot be
      // fast-forwarded — each update is a message event.
      Absorb(values[0]);
      SendSnapshot(kStraightReport);
      return 1;
    }
    return ConsumeSbc(values);
  }

  /// Absorbs one update in place when it provably sends nothing: the site
  /// is in SBC with a cached gap above 0. That is exactly what ConsumeSbc
  /// does with a one-update span in this state, minus the span plumbing.
  /// Returns false, touching nothing, otherwise.
  bool TryAbsorbSilent(double value) {
    if (!in_sbc_stage_ || !skip_.valid() || skip_.gap() == 0) return false;
    Absorb(value);
    skip_.Advance(1);
    return true;
  }

  void OnCoordinatorMessage(const sim::Message& message) override {
    switch (message.type) {
      case kCollect:
        // The epoch rides in u; the reply echoes it so the coordinator can
        // discard replies to abandoned rounds under faulty channels.
        collect_epoch_ = message.u;
        SendSnapshot(kCollectReply);
        break;
      case kState:
        global_estimate_ = message.a;
        global_time_ = message.u;
        in_sbc_stage_ = (message.v == kStageSbc);
        rate_scale_ = message.b;
        updates_since_state_ = 0;
        // The broadcast moved the rate inputs: any cached inter-report
        // gap was drawn at a dominating rate that no longer applies.
        skip_.Invalidate();
        break;
      case kPhase2:
        phase2_ = true;
        skip_.Invalidate();
        break;
      default:
        NMC_CHECK(false);
    }
  }

  /// Emits one message carrying this site's exact totals (used by the
  /// protocol's ForceSync as well as the regular flows above). Collect
  /// replies also echo the round epoch in v.
  void SendSnapshot(int type) {
    sim::Message m;
    m.type = type;
    m.u = local_updates_;
    m.a = local_sum_;
    m.b = local_sum_sq_;
    if (type == kCollectReply) m.v = collect_epoch_;
    network_->SendToCoordinator(site_id_, m);
  }

  /// Emits a sync request (ForceSync in the SBC stage).
  void SendSyncRequest() {
    sim::Message m;
    m.type = kSyncRequest;
    network_->SendToCoordinator(site_id_, m);
  }

 private:
  /// Applies one update to the local totals (the per-update bookkeeping
  /// every path shares, coins or not).
  void Absorb(double value) {
    // The discrete models assume bounded updates in [-1, 1]; fBm mode
    // feeds Gaussian (unbounded) increments, per Section 3.4.
    if (options_.fbm_delta == 0.0) NMC_CHECK_LE(std::fabs(value), 1.0);
    if (options_.drift_mode == DriftMode::kUnknownUnitDrift) {
      NMC_CHECK_EQ(std::fabs(value), 1.0);
    }
    ++local_updates_;
    local_sum_ += value;
    local_sum_sq_ += value * value;
    ++updates_since_state_;
  }

  /// True when x is an integer far enough below 2^51 that `margin` more
  /// unit steps keep every intermediate exactly representable — the gate
  /// that makes the bulk path below bit-identical to the scalar loop.
  static bool SmallInteger(double x, double margin) {
    return x == std::floor(x) && std::fabs(x) + margin < 0x1.0p51;
  }

  void AbsorbRun(std::span<const double> values) {
    // Bulk path for ±1 runs: with integer totals in the exact range,
    // grouped additions of ±1 are bit-identical to the per-update loop
    // (every intermediate is an exactly-representable integer), so
    // batch-size invariance survives. The tally also subsumes Absorb's
    // per-update range checks — all-unit implies |v| == 1. Non-unit or
    // non-integer-total runs (fBm, fractional streams) fall through.
    const int64_t n = static_cast<int64_t>(values.size());
    const double margin = static_cast<double>(n);
    if (n >= 4 && SmallInteger(local_sum_, margin) &&
        SmallInteger(local_sum_sq_, margin)) {
      const common::SignTally tally = common::TallySigns(values);
      if (tally.all_unit) {
        local_updates_ += n;
        local_sum_ += static_cast<double>(tally.plus - tally.minus);
        local_sum_sq_ += static_cast<double>(n);
        updates_since_state_ += n;
        return;
      }
    }
    for (const double value : values) Absorb(value);
  }

  /// Single-site form (Theorem 3.1): the site samples against its own
  /// exact count; a head costs one message and needs no reply.
  int64_t ConsumeSingleSite(std::span<const double> values) {
    // The fast-forward chunk bound (fast_forward_) needs |local_sum_| to
    // move by at most 1 per update and the rate law to be monotone in |s|
    // at fixed epsilon — which rules out unbounded fBm increments and the
    // per-update rescaling of variance_adaptive. Those flip one coin per
    // update.
    if (!fast_forward_) {
      int64_t consumed = 0;
      const int64_t count = static_cast<int64_t>(values.size());
      while (consumed < count) {
        Absorb(values[static_cast<size_t>(consumed)]);
        ++consumed;
        const double scale =
            VarianceScale(options_, local_sum_sq_, local_updates_);
        const double rate =
            options_.stage_policy == StagePolicy::kStraightOnly
                ? 1.0
                : Phase1Rate(options_, local_sum_, local_updates_, scale);
        if (rng_.Bernoulli(rate)) {
          SendSnapshot(kExactReport);
          break;
        }
      }
      return consumed;
    }

    // Fast-forward: thinned geometric skips over a chunk of updates whose
    // rate is dominated by chunk_dom_ (the rate at the smallest |s| and
    // earliest t the chunk can reach). Candidates fire at the dominating
    // rate and are accepted with probability rate/chunk_dom_, which makes
    // every update an exact Bernoulli(rate) trial; discarding a partially
    // consumed gap at a chunk boundary is exact by memorylessness.
    int64_t consumed = 0;
    const int64_t count = static_cast<int64_t>(values.size());
    while (consumed < count) {
      if (chunk_left_ <= 0) RestartSingleSiteChunk();
      skip_.EnsureGap(chunk_dom_);
      const int64_t m =
          std::min({skip_.gap(), chunk_left_, count - consumed});
      if (m > 0) {
        AbsorbRun(values.subspan(static_cast<size_t>(consumed),
                                 static_cast<size_t>(m)));
        consumed += m;
        chunk_left_ -= m;
        skip_.Advance(m);
      }
      if (consumed == count) break;
      if (chunk_left_ == 0) continue;  // domination span expired: rechunk
      // gap == 0 within the chunk: the next update is a candidate.
      Absorb(values[static_cast<size_t>(consumed)]);
      ++consumed;
      --chunk_left_;
      skip_.TakeCandidate();
      const double rate =
          options_.stage_policy == StagePolicy::kStraightOnly
              ? 1.0
              : Phase1Rate(options_, local_sum_, local_updates_,
                           /*scale=*/1.0);
      // The chunk stays valid across reports: its domination argument
      // bounds |s| and t over the next chunk_left_ updates and does not
      // involve the report history, so only the gap is redrawn.
      const bool accept =
          rate >= chunk_dom_ || rng_.UniformDouble() * chunk_dom_ < rate;
      if (accept) {
        SendSnapshot(kExactReport);
        break;
      }
    }
    return consumed;
  }

  void RestartSingleSiteChunk() {
    skip_.Invalidate();
    if (options_.stage_policy == StagePolicy::kStraightOnly) {
      chunk_dom_ = 1.0;  // rate is the constant 1: every update reports
      chunk_left_ = common::GeometricSkip::kInfiniteGap;
      return;
    }
    const double abs_s = std::fabs(local_sum_);
    int64_t span = static_cast<int64_t>(abs_s / kChunkDivisor);
    if (span < 1) span = 1;
    const double s_min = std::max(abs_s - static_cast<double>(span), 0.0);
    // Updates are bounded by 1, so |s| >= s_min throughout the span and
    // t >= local_updates_ + 1 at the first update: both the walk law
    // (decreasing in |s|) and the drift guard (decreasing in t) are
    // dominated by the rate at (s_min, t + 1).
    chunk_dom_ =
        Phase1Rate(options_, s_min, local_updates_ + 1, /*scale=*/1.0);
    chunk_left_ = span;
  }

  /// SBC: sample against the last broadcast estimate. The global time
  /// estimate (for the drift guard) is the broadcast time plus the
  /// updates this site has seen since — an underestimate of the true t,
  /// which errs toward sampling more, never less.
  int64_t ConsumeSbc(std::span<const double> values) {
    const int64_t count = static_cast<int64_t>(values.size());
    // Fast-forward: between broadcasts the walk/fBm term is frozen and
    // the drift guard only decays, so the rate at the next update
    // dominates every later one until the next kState invalidates the
    // gap. Candidates are thinned by rate/sbc_dom_ (identically 1 once
    // the frozen walk term dominates the guard).
    int64_t consumed = 0;
    while (consumed < count) {
      if (!skip_.valid()) {
        sbc_dom_ = Phase1Rate(options_, global_estimate_,
                              global_time_ + updates_since_state_ + 1,
                              rate_scale_, walk_cache_);
        skip_.EnsureGap(sbc_dom_);
      }
      const int64_t m = std::min(skip_.gap(), count - consumed);
      if (m > 0) {
        AbsorbRun(values.subspan(static_cast<size_t>(consumed),
                                 static_cast<size_t>(m)));
        consumed += m;
        skip_.Advance(m);
      }
      if (consumed == count) break;
      Absorb(values[static_cast<size_t>(consumed)]);
      ++consumed;
      skip_.TakeCandidate();
      const double rate =
          Phase1Rate(options_, global_estimate_,
                     global_time_ + updates_since_state_, rate_scale_,
                     walk_cache_);
      const bool accept =
          rate >= sbc_dom_ || rng_.UniformDouble() * sbc_dom_ < rate;
      if (accept) {
        SendSyncRequest();
        break;
      }
    }
    return consumed;
  }

  int site_id_;
  int num_sites_;
  CounterOptions options_;
  sim::Network* network_;
  common::Rng rng_;
  common::BatchRng batch_rng_;
  common::GeometricSkip skip_;
  // Hoisted ConsumeSingleSite gate — constant for the life of the site
  // (see the comment there for why these modes are excluded).
  const bool fast_forward_ =
      options_.fbm_delta == 0.0 && !options_.variance_adaptive;
  RateCache* walk_cache_;

  // Fast-forward state: the dominating rates the cached gap was drawn at.
  double chunk_dom_ = 0.0;    // single-site chunk (valid while chunk_left_ > 0)
  int64_t chunk_left_ = 0;    // updates left in the single-site chunk
  double sbc_dom_ = 0.0;      // SBC dominating rate (valid while gap cached)

  int64_t local_updates_ = 0;
  double local_sum_ = 0.0;
  double local_sum_sq_ = 0.0;
  int64_t updates_since_state_ = 0;
  double global_estimate_ = 0.0;
  int64_t global_time_ = 0;
  double rate_scale_ = 1.0;
  bool in_sbc_stage_ = false;
  bool phase2_ = false;
  int64_t collect_epoch_ = 0;
};

/// Coordinator-side state machine of Phase 1.
class NonMonotonicCounter::Coordinator : public sim::CoordinatorNode {
 public:
  Coordinator(int num_sites, const CounterOptions& options,
              sim::Network* network)
      : num_sites_(num_sites),
        options_(options),
        network_(network),
        known_updates_(static_cast<size_t>(num_sites), 0),
        known_sum_(static_cast<size_t>(num_sites), 0.0),
        known_sum_sq_(static_cast<size_t>(num_sites), 0.0),
        collect_replied_(static_cast<size_t>(num_sites), false),
        gp_(options.horizon_n) {
    // Carried state from a previous horizon epoch (HorizonFreeCounter).
    // With k > 1 the sites restart their local totals at zero, so the
    // carried part lives only in these aggregates; with k = 1 the single
    // site carries it itself and reports absolute totals, so the per-site
    // "known" entry starts at the carried values to keep the deltas right.
    total_updates_ = options.initial_updates;
    total_sum_ = options.initial_sum;
    total_sum_sq_ = options.initial_sum_sq;
    if (num_sites == 1) {
      known_updates_[0] = options.initial_updates;
      known_sum_[0] = options.initial_sum;
      known_sum_sq_[0] = options.initial_sum_sq;
    }
  }

  void OnSiteMessage(int site_id, const sim::Message& message) override {
    switch (message.type) {
      case kSyncRequest:
        if (collecting_ || phase2_pending_) break;
        ++sbc_syncs_;
        StartCollect();
        break;
      case kCollectReply: {
        const size_t i = static_cast<size_t>(site_id);
        // A faulty channel can replay a reply (duplicate) or deliver one
        // from an abandoned round (delay across a resync). Totals are
        // absorbed whenever they are no older than what we know — per-site
        // totals are monotone in u, so this never regresses state — but
        // only a first reply to the current epoch advances the round.
        const bool current = collecting_ && message.v == collect_epoch_ &&
                             !collect_replied_[i];
        if (message.u >= known_updates_[i]) {
          UpdateKnown(site_id, message.u, message.a, message.b);
        }
        if (!current) break;
        collect_replied_[i] = true;
        NMC_CHECK_GT(pending_replies_, 0);
        if (--pending_replies_ == 0) {
          collecting_ = false;
          OnExactState(/*from_collect=*/true, /*reporter=*/-1);
        }
        break;
      }
      case kStraightReport:
        // Stale (delayed-past-newer) reports are dropped whole: absorbing
        // them is a no-op by the monotone rule and acknowledging them
        // would re-broadcast old state.
        if (message.u < known_updates_[static_cast<size_t>(site_id)]) break;
        UpdateKnown(site_id, message.u, message.a, message.b);
        ++straight_reports_;
        OnExactState(/*from_collect=*/false, site_id);
        break;
      case kExactReport:
        NMC_CHECK_EQ(num_sites_, 1);
        if (message.u < known_updates_[static_cast<size_t>(site_id)]) break;
        UpdateKnown(site_id, message.u, message.a, message.b);
        OnExactState(/*from_collect=*/false, /*reporter=*/-1);
        break;
      default:
        NMC_CHECK(false);
    }
  }

  /// Fault recovery: opens a fresh epoch-tagged collect round, superseding
  /// any round stuck on lost replies (their late replies are recognized by
  /// epoch and ignored). No-op once the Phase-2 handoff is pending — the
  /// HYZ pair owns recovery from there.
  void BeginResync() {
    if (phase2_pending_) return;
    ++resyncs_;
    StartCollect();
  }

  double Estimate() const { return total_sum_; }
  int64_t known_updates() const { return total_updates_; }
  double known_sum_sq() const { return total_sum_sq_; }
  bool phase2_pending() const { return phase2_pending_; }
  double mu_hat() const { return gp_.mu_hat(); }
  int64_t snapshot_updates() const { return snapshot_updates_; }
  double snapshot_sum() const { return snapshot_sum_; }
  int64_t sbc_syncs() const { return sbc_syncs_; }
  int64_t straight_reports() const { return straight_reports_; }
  int64_t stage_switches() const { return stage_switches_; }
  int64_t resyncs() const { return resyncs_; }
  bool in_sbc_stage() const { return in_sbc_stage_; }
  bool gp_resolved() const { return gp_.resolved(); }

 private:
  void StartCollect() {
    collecting_ = true;
    ++collect_epoch_;
    pending_replies_ = num_sites_;
    std::fill(collect_replied_.begin(), collect_replied_.end(), false);
    sim::Message m;
    m.type = kCollect;
    m.u = collect_epoch_;
    network_->Broadcast(m);
  }

  void UpdateKnown(int site_id, int64_t updates, double sum, double sum_sq) {
    const size_t i = static_cast<size_t>(site_id);
    total_updates_ += updates - known_updates_[i];
    total_sum_ += sum - known_sum_[i];
    total_sum_sq_ += sum_sq - known_sum_sq_[i];
    known_updates_[i] = updates;
    known_sum_[i] = sum;
    known_sum_sq_[i] = sum_sq;
  }

  /// Both ends of a collect and every straight report leave the
  /// coordinator with the exact (t, S): all per-site totals are current.
  void OnExactState(bool from_collect, int reporter) {
    if (options_.drift_mode == DriftMode::kUnknownUnitDrift) {
      gp_.Observe(total_updates_, total_sum_);
      if (options_.enable_phase2 && gp_.resolved() && !phase2_pending_) {
        phase2_pending_ = true;
        snapshot_updates_ = total_updates_;
        snapshot_sum_ = total_sum_;
        sim::Message m;
        m.type = kPhase2;
        network_->Broadcast(m);
        return;
      }
    }

    if (num_sites_ == 1) return;  // single-site form: no replies needed

    const bool want_sbc = WantSbcStage();
    const bool changed = want_sbc != in_sbc_stage_;
    if (changed) {
      in_sbc_stage_ = want_sbc;
      ++stage_switches_;
    }

    sim::Message state;
    state.type = kState;
    state.a = total_sum_;
    state.u = total_updates_;
    state.v = in_sbc_stage_ ? kStageSbc : kStageStraight;
    state.b = VarianceScale(options_, total_sum_sq_, total_updates_);
    if (from_collect || changed) {
      network_->Broadcast(state);
    } else {
      // StraightSync: acknowledge the reporting site with the fresh
      // global state (2 messages per update in total).
      NMC_CHECK_GE(reporter, 0);
      network_->SendToSite(reporter, state);
    }
  }

  bool WantSbcStage() {
    switch (options_.stage_policy) {
      case StagePolicy::kSbcOnly:
        return true;
      case StagePolicy::kStraightOnly:
        return false;
      case StagePolicy::kPaperBoundary: {
        // The paper's Õ-level rule (eps*|S_hat|)^2 >= k: correct
        // asymptotically but ignores the log factor, leaving a band where
        // SBC samples at rate ~1 and pays 3k+1 per update (the E12
        // ablation quantifies this).
        const double d = options_.fbm_delta > 0.0 ? options_.fbm_delta : 2.0;
        const double scaled = options_.epsilon * std::fabs(total_sum_);
        // stage decision runs once per sync round (OnExactState), not per update
        return std::pow(scaled, d) >= static_cast<double>(num_sites_);
      }
      case StagePolicy::kAuto:
        break;
    }
    // Bracket cache: under the walk law (fbm_delta == 0) with no variance
    // rescaling, the fresh computation below reduces to
    //   factor * (3k+1) * RandomWalkRate(|S|, eps, n, alpha, beta) <= 2
    // and RandomWalkRate is IEEE-monotone non-increasing in |S| — one
    // multiply, one square, one divide, one min, each correctly rounded
    // and monotone; the log^beta factor is a memoized run constant, so
    // no pow is evaluated per call (pow carries no monotonicity
    // guarantee, which is why the fBm law and the per-call epsilon
    // rescaling of variance_adaptive skip the cache). The decision is
    // therefore a threshold in |S|: remember the tightest true/false
    // bracket observed and only recompute strictly inside it. Every
    // answer equals what the full computation would return, so the
    // cache is observationally invisible. StraightSync regimes hit the
    // bracket every update, eliminating a CounterOptions copy and a
    // rate evaluation from the per-update message path.
    const bool bracketable = options_.fbm_delta == 0.0 &&
                             !options_.variance_adaptive &&
                             options_.stage_boundary_factor >= 0.0;
    const double abs_s = std::fabs(total_sum_);
    if (bracketable) {
      if (abs_s >= sbc_true_min_) return true;
      if (abs_s <= sbc_false_max_) return false;
    }
    // Cost-comparing form of the same rule: an SBC sync costs 3k+1
    // messages and fires at the eq. (1)/(2) rate, StraightSync costs 2 per
    // update; switch to SBC exactly when it is the cheaper pattern. Up to
    // the log factor this is the paper's (eps*|S_hat|)^2 >= k boundary.
    CounterOptions rate_options = options_;
    rate_options.enable_drift_guard = false;  // guard cost is stage-free
    const double scale =
        VarianceScale(options_, total_sum_sq_, total_updates_);
    const double rate =
        Phase1Rate(rate_options, total_sum_, total_updates_, scale);
    const double sync_cost = 3.0 * static_cast<double>(num_sites_) + 1.0;
    const bool want =
        options_.stage_boundary_factor * sync_cost * rate <= 2.0;
    if (bracketable) {
      if (want) {
        sbc_true_min_ = abs_s;
      } else {
        sbc_false_max_ = abs_s;
      }
    }
    return want;
  }

  int num_sites_;
  CounterOptions options_;
  sim::Network* network_;

  std::vector<int64_t> known_updates_;
  std::vector<double> known_sum_;
  std::vector<double> known_sum_sq_;
  int64_t total_updates_ = 0;
  double total_sum_ = 0.0;
  double total_sum_sq_ = 0.0;

  bool in_sbc_stage_ = false;
  // WantSbcStage bracket cache (kAuto + walk law only): the decision is
  // true for |S| >= sbc_true_min_ and false for |S| <= sbc_false_max_.
  double sbc_true_min_ = std::numeric_limits<double>::infinity();
  double sbc_false_max_ = -1.0;
  bool collecting_ = false;
  int pending_replies_ = 0;
  int64_t collect_epoch_ = 0;
  std::vector<bool> collect_replied_;
  int64_t resyncs_ = 0;

  GpSearch gp_;
  bool phase2_pending_ = false;
  int64_t snapshot_updates_ = 0;
  double snapshot_sum_ = 0.0;

  int64_t sbc_syncs_ = 0;
  int64_t straight_reports_ = 0;
  int64_t stage_switches_ = 0;
};

NonMonotonicCounter::NonMonotonicCounter(int num_sites,
                                         const CounterOptions& options)
    : options_(options), network_(num_sites) {
  NMC_CHECK_GT(options.epsilon, 0.0);
  NMC_CHECK_GE(options.horizon_n, 1);
  NMC_CHECK_GE(options.initial_updates, 0);
  network_.SetChannel(sim::MakeChannel(options.channel));
  common::Rng seeder(options.seed);
  coordinator_ = std::make_unique<Coordinator>(num_sites, options, &network_);
  network_.AttachCoordinator(coordinator_.get());
  sites_.reserve(static_cast<size_t>(num_sites));
  for (int s = 0; s < num_sites; ++s) {
    sites_.push_back(std::make_unique<Site>(s, num_sites, options, &network_,
                                            seeder.Fork(), &walk_cache_,
                                            &inv_log_q_));
    network_.AttachSite(s, sites_.back().get());
  }
}

NonMonotonicCounter::~NonMonotonicCounter() = default;

int NonMonotonicCounter::num_sites() const { return network_.num_sites(); }

void NonMonotonicCounter::ProcessUpdate(int site_id, double value) {
  // Per-update fast path for the common Phase-1 / perfect-channel case:
  // skips the batch plumbing (phase-2 run scan, channel probe) that
  // ProcessBatch pays per call. StraightSync regimes, where every update
  // messages anyway, live on this path.
  if (positive_counter_ == nullptr && !network_.channeled()) {
    NMC_CHECK_GE(site_id, 0);
    NMC_CHECK_LT(site_id, num_sites());
    sites_[static_cast<size_t>(site_id)]->ConsumeRun(
        std::span<const double>(&value, 1));
    network_.DeliverAll();
    if (coordinator_->phase2_pending() && positive_counter_ == nullptr) {
      ActivatePhase2();
    }
    return;
  }
  ProcessBatch(site_id, std::span<const double>(&value, 1));
}

int64_t NonMonotonicCounter::ProcessBatch(int site_id,
                                          std::span<const double> values) {
  NMC_CHECK_GE(site_id, 0);
  NMC_CHECK_LT(site_id, num_sites());
  NMC_CHECK(!values.empty());
  if (positive_counter_ != nullptr) {
    // Phase 2: forward the leading same-sign run to the matching HYZ
    // counter as unit increments (±1 updates only, so same sign == equal).
    const double first = values.front();
    NMC_CHECK_EQ(std::fabs(first), 1.0);
    size_t run = 1;
    while (run < values.size() && values[run] == first) ++run;
    hyz::HyzProtocol* target =
        first > 0 ? positive_counter_.get() : negative_counter_.get();
    return target->ProcessRun(site_id, static_cast<int64_t>(run));
  }
  // Under a faulty channel, advance simulated time (delivering anything
  // that came due) and process one update per call: fast-forwarding a
  // silent prefix assumes it stays silent, which delayed delivery breaks.
  const bool faulty = network_.channeled();
  if (faulty) network_.BeginTick();
  const int64_t consumed =
      sites_[static_cast<size_t>(site_id)]->ConsumeRun(
          faulty ? values.first(1) : values);
  network_.DeliverAll();
  if (coordinator_->phase2_pending() && positive_counter_ == nullptr) {
    ActivatePhase2();
  }
  return consumed;
}

sim::ChunkStop NonMonotonicCounter::ProcessChunk(
    std::span<const sim::SiteRun> runs, std::span<const double> values) {
  const int num_sites = network_.num_sites();
  if (positive_counter_ != nullptr || network_.channeled() || num_sites == 1) {
    return Protocol::ProcessChunk(runs, values);
  }
  NMC_CHECK(!runs.empty());
  // Until the first message nothing is delivered, so the coordinator's
  // estimate stays frozen over every update consumed before it.
  const int64_t messages_before = network_.total_messages();
  const int64_t len = static_cast<int64_t>(values.size());
  size_t r = 0;
  int64_t offset = 0;
  int64_t pos = 0;
  for (; r < runs.size(); ++r) {
    const sim::SiteRun& run = runs[r];
    const int site_id = run.site;
    NMC_CHECK_GE(site_id, 0);
    NMC_CHECK_LT(site_id, num_sites);
    NMC_CHECK_GE(run.length, 1);
    NMC_CHECK_LE(run.length, len - pos);
    Site* site = sites_[static_cast<size_t>(site_id)].get();
    if (run.length == 1 &&
        site->TryAbsorbSilent(values[static_cast<size_t>(pos)])) {
      ++pos;
      continue;
    }
    const int64_t used = site->ConsumeRun(values.subspan(
        static_cast<size_t>(pos), static_cast<size_t>(run.length)));
    pos += used;
    if (network_.total_messages() != messages_before) {
      if (used < run.length) {
        offset = used;
      } else {
        ++r;
      }
      break;
    }
    // ConsumeRun stops early only right after a message (in StraightSync
    // that is the run's first update), so a silent call took the whole run.
    NMC_CHECK_EQ(used, run.length);
  }
  network_.DeliverAll();
  if (coordinator_->phase2_pending() && positive_counter_ == nullptr) {
    ActivatePhase2();
  }
  return sim::ChunkStop{pos, static_cast<uint32_t>(r),
                        static_cast<uint32_t>(offset)};
}

bool NonMonotonicCounter::Resync() {
  if (positive_counter_ != nullptr) {
    const bool positive_ok = positive_counter_->Resync();
    const bool negative_ok = negative_counter_->Resync();
    return positive_ok && negative_ok;
  }
  if (num_sites() == 1) {
    sites_[0]->SendSnapshot(kExactReport);
  } else {
    coordinator_->BeginResync();
  }
  network_.DeliverAll();
  return true;
}

void NonMonotonicCounter::ForceSync() {
  NMC_CHECK(positive_counter_ == nullptr);  // Phase 1 only
  if (num_sites() == 1) {
    sites_[0]->SendSnapshot(kExactReport);
  } else if (coordinator_->in_sbc_stage()) {
    sites_[0]->SendSyncRequest();
  } else {
    return;  // StraightSync: the coordinator is already exact
  }
  network_.DeliverAll();
}

int64_t NonMonotonicCounter::SyncedUpdates() const {
  return coordinator_->known_updates();
}

double NonMonotonicCounter::SyncedSumSquares() const {
  return coordinator_->known_sum_sq();
}

void NonMonotonicCounter::ActivatePhase2() {
  const int64_t t = coordinator_->snapshot_updates();
  const double s = coordinator_->snapshot_sum();
  // For ±1 updates, #positives = (t + S)/2 and #negatives = (t - S)/2.
  const double positives = (static_cast<double>(t) + s) / 2.0;
  const double negatives = (static_cast<double>(t) - s) / 2.0;
  const int64_t p0 = std::llround(positives);
  const int64_t n0 = std::llround(negatives);
  NMC_CHECK_LE(std::fabs(positives - static_cast<double>(p0)), 1e-6);
  NMC_CHECK_LE(std::fabs(negatives - static_cast<double>(n0)), 1e-6);
  phase2_switch_time_ = t;

  const double mu = coordinator_->mu_hat();
  hyz::HyzOptions hyz_options;
  hyz_options.epsilon = std::clamp(
      kPhase2EpsFraction * options_.epsilon * std::fabs(mu), 1e-5, 0.9);
  const double n = static_cast<double>(options_.horizon_n);
  hyz_options.delta = std::min(0.5, kPhase2DeltaScale / (n * n));
  if (options_.phase2_auto_hyz_mode) {
    // Per-round cost: deterministic ~2k, sampled ~sqrt(kL) + L.
    const double k = static_cast<double>(num_sites());
    // phase-2 activation is a once-per-trial transition, not per-update work
    const double log_term = std::log(2.0 / hyz_options.delta);
    if (2.0 * k < std::sqrt(k * log_term) + log_term) {
      hyz_options.mode = hyz::HyzMode::kDeterministic;
    }
  }
  // The pair inherits the fault model on separate networks; distinct
  // channel seeds keep the two loss patterns independent. (Under the
  // default perfect channel the seed is unused and no channel is built.)
  hyz_options.channel = options_.channel;
  common::Rng seeder(options_.seed ^ 0x9e3779b97f4a7c15ULL);
  hyz_options.seed = seeder.NextU64();
  hyz_options.channel.seed = options_.channel.seed + 1;
  hyz_options.initial_total = p0;
  positive_counter_ =
      std::make_unique<hyz::HyzProtocol>(num_sites(), hyz_options);  // phase-2 activation allocates the HYZ pair exactly once per trial
  hyz_options.seed = seeder.NextU64();
  hyz_options.channel.seed = options_.channel.seed + 2;
  hyz_options.initial_total = n0;
  negative_counter_ =
      std::make_unique<hyz::HyzProtocol>(num_sites(), hyz_options);  // phase-2 activation allocates the HYZ pair exactly once per trial
}

double NonMonotonicCounter::Estimate() const {
  if (positive_counter_ != nullptr) {
    return positive_counter_->Estimate() - negative_counter_->Estimate();
  }
  return coordinator_->Estimate();
}

const sim::MessageStats& NonMonotonicCounter::stats() const {
  // Phase 1 serves the network's stats by reference: the tracking pump
  // reads stats() around every batch, so the combined-copy path would be
  // a per-batch struct copy for the lifetime of most runs.
  if (positive_counter_ == nullptr) return network_.stats();
  combined_stats_ = network_.stats();
  combined_stats_ += positive_counter_->stats();
  combined_stats_ += negative_counter_->stats();
  return combined_stats_;
}

CounterDiagnostics NonMonotonicCounter::diagnostics() const {
  CounterDiagnostics d;
  d.phase2_active = positive_counter_ != nullptr;
  d.mu_hat = coordinator_->gp_resolved() ? coordinator_->mu_hat() : 0.0;
  d.phase2_switch_time = phase2_switch_time_;
  d.sbc_syncs = coordinator_->sbc_syncs();
  d.straight_reports = coordinator_->straight_reports();
  d.stage_switches = coordinator_->stage_switches();
  d.in_sbc_stage = coordinator_->in_sbc_stage();
  d.resyncs = coordinator_->resyncs();
  return d;
}

}  // namespace nmc::core
