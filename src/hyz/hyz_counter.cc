#include "hyz/hyz_counter.h"

#include <algorithm>
#include <cmath>

#include "common/batch_rng.h"
#include "common/check.h"
#include "common/geometric_skip.h"
#include "common/rng.h"

namespace nmc::hyz {

namespace {

enum MessageType {
  kReport = 1,        // site -> coord: u = in-round local count, v = epoch
  kCollect = 2,       // coord -> sites (broadcast): u = round epoch
  kCollectReply = 3,  // site -> coord: u = exact lifetime count, v = epoch
  kNewRound = 4,      // coord -> sites (broadcast): a = sampling probability
};

/// Multiplier c on the theoretical sampling rate (see RateForBase).
constexpr double kRateConstant = 1.0;

}  // namespace

/// Site-side state: in-round local increment count and the current
/// sampling probability.
class HyzProtocol::Site : public sim::SiteNode {
 public:
  /// The gap feed is seeded from one u64 of the site's forked `rng`. The
  /// round rate is frozen between broadcasts and kNewRound gives every
  /// site the same one, so the protocol's shared `inv_log_q` memo runs one
  /// log1p per round; kDeterministic never draws.
  Site(int site_id, HyzMode mode, sim::Network* network, common::Rng rng,
       common::InvLogQMemo* inv_log_q)
      : site_id_(site_id),
        mode_(mode),
        network_(network),
        batch_rng_(rng.NextU64()),
        skip_(&batch_rng_, inv_log_q) {}

  /// Consumes a prefix of `count` unit increments (>= 1), stopping right
  /// after the first one that emits a report; returns the count consumed.
  /// Both modes fast-forward the silent prefix: kDeterministic knows the
  /// next report arithmetically (it draws no coins), kSampled skips by a
  /// geometric gap at the frozen round rate — no thinning needed, the rate
  /// only changes via broadcasts, which invalidate the cached gap.
  int64_t ConsumeRun(int64_t count) {
    NMC_CHECK_GE(count, 1);
    if (mode_ == HyzMode::kDeterministic) {
      const int64_t to_report =
          std::max<int64_t>(1, last_reported_ + threshold_ - round_count_);
      if (count < to_report) {
        round_count_ += count;
        return count;
      }
      round_count_ += to_report;
      Report();
      return to_report;
    }
    skip_.EnsureGap(rate_);
    if (skip_.gap() >= count) {
      skip_.Advance(count);
      round_count_ += count;
      return count;
    }
    const int64_t consumed = skip_.gap() + 1;
    skip_.Advance(skip_.gap());
    skip_.TakeCandidate();
    round_count_ += consumed;
    Report();
    return consumed;
  }

  void OnCoordinatorMessage(const sim::Message& message) override {
    switch (message.type) {
      case kCollect: {
        collect_epoch_ = message.u;
        // The reply carries the lifetime increment count, not the in-round
        // count: lifetime totals are idempotent, so a reply that is lost,
        // duplicated, or superseded by a later round loses no counts (the
        // coordinator rebuilds the exact base from per-site totals).
        round_base_ += round_count_;
        sim::Message reply;
        reply.type = kCollectReply;
        reply.u = round_base_;
        reply.v = collect_epoch_;
        round_count_ = 0;
        last_reported_ = 0;
        // The reset redefines the reporting state; any cached gap was
        // drawn for the old round.
        skip_.Invalidate();
        network_->SendToCoordinator(site_id_, reply);
        break;
      }
      case kNewRound:
        // Payload is the sampling probability (kSampled) or the reporting
        // threshold (kDeterministic).
        if (mode_ == HyzMode::kSampled) {
          rate_ = message.a;
        } else {
          threshold_ = message.u;
        }
        skip_.Invalidate();
        break;
      default:
        NMC_CHECK(false);
    }
  }

 private:
  void Report() {
    sim::Message m;
    m.type = kReport;
    m.u = round_count_;
    m.v = collect_epoch_;  // lets the coordinator discard stale-round reports
    last_reported_ = round_count_;
    network_->SendToCoordinator(site_id_, m);
  }

  int site_id_;
  HyzMode mode_;
  sim::Network* network_;
  common::BatchRng batch_rng_;
  common::GeometricSkip skip_;
  double rate_ = 1.0;
  int64_t threshold_ = 1;
  int64_t round_count_ = 0;
  /// Increments absorbed into completed rounds (lifetime = round_base_ +
  /// round_count_).
  int64_t round_base_ = 0;
  int64_t last_reported_ = 0;
  int64_t collect_epoch_ = 0;
};

/// Coordinator-side state: exact base count from the last collect plus the
/// unbiased per-site contributions of the current round.
class HyzProtocol::Coordinator : public sim::CoordinatorNode {
 public:
  Coordinator(int num_sites, const HyzOptions& options, sim::Network* network)
      : options_(options),
        network_(network),
        base_(static_cast<double>(options.initial_total)),
        reported_(static_cast<size_t>(num_sites), false),
        last_report_(static_cast<size_t>(num_sites), 0),
        known_total_(static_cast<size_t>(num_sites), 0),
        collect_replied_(static_cast<size_t>(num_sites), false) {
    NMC_CHECK_GT(options.epsilon, 0.0);
    NMC_CHECK_GT(options.delta, 0.0);
    NMC_CHECK_LT(options.delta, 1.0);
    NMC_CHECK_GE(options.initial_total, 0);
  }

  /// Computes the round's sampling probability (or reporting threshold)
  /// and announces it; called once at protocol start and at the end of
  /// every collect.
  void StartRound() {
    sim::Message m;
    m.type = kNewRound;
    if (options_.mode == HyzMode::kSampled) {
      rate_ = RateForBase(base_);
      m.a = rate_;
    } else {
      threshold_ = ThresholdForBase(base_);
      m.u = threshold_;
    }
    network_->Broadcast(m);
  }

  void OnSiteMessage(int site_id, const sim::Message& message) override {
    const size_t i = static_cast<size_t>(site_id);
    switch (message.type) {
      case kReport: {
        if (collecting_) break;  // stale report racing a collect
        // A report from a site whose round is stale (it missed a collect,
        // or the report was delayed across one) counts increments already
        // folded into the base; same-round reports only ever grow, so the
        // monotone check also discards reorderings. Both are no-ops on a
        // perfect channel.
        if (message.v != collect_epoch_) break;
        if (reported_[i] && message.u < last_report_[i]) break;
        contribution_sum_ -= Contribution(i);
        reported_[i] = true;
        last_report_[i] = message.u;
        contribution_sum_ += Contribution(i);
        MaybeStartCollect();
        break;
      }
      case kCollectReply: {
        // Lifetime totals are monotone: absorb whenever at least as new as
        // what we know, but only a first reply to the current epoch
        // advances the round.
        const bool current = collecting_ && message.v == collect_epoch_ &&
                             !collect_replied_[i];
        if (message.u >= known_total_[i]) known_total_[i] = message.u;
        if (!current) break;
        collect_replied_[i] = true;
        NMC_CHECK_GT(pending_replies_, 0);
        if (--pending_replies_ == 0) FinishCollect();
        break;
      }
      default:
        NMC_CHECK(false);
    }
  }

  /// Fault recovery: opens a fresh epoch-tagged collect round, superseding
  /// any round stuck on lost replies.
  void ForceCollect() { StartCollect(); }

  double Estimate() const { return base_ + contribution_sum_; }
  double rate() const { return rate_; }
  int64_t rounds() const { return rounds_; }

 private:
  double RateForBase(double base) const {
    // The residual at each site is geometric (subexponential), so the sum
    // of k residuals concentrates within eps*base only when
    // p * eps * base >= c*(sqrt(k L) + L), L = log(2/delta): the sqrt(kL)
    // term is the Gaussian part of the Bernstein bound and the additive L
    // covers the single-site heavy tail (dominant for k = O(L)).
    // nmc-lint: allow(NO_PER_UPDATE_TRANSCENDENTALS) rate is set once per round at StartRound, not per update
    const double log_term = std::log(2.0 / options_.delta);
    const double denom = options_.epsilon * std::max(base, 1.0);
    const double rate =
        kRateConstant *
        (std::sqrt(static_cast<double>(reported_.size()) * log_term) +
         log_term) /
        denom;
    return std::min(rate, 1.0);
  }

  // Deterministic threshold leaving total residual < eps*base/2.
  int64_t ThresholdForBase(double base) const {
    const double k = static_cast<double>(reported_.size());
    return std::max<int64_t>(
        1, static_cast<int64_t>(options_.epsilon * std::max(base, 1.0) /
                                (2.0 * k)));
  }

  double Contribution(size_t i) const {
    if (!reported_[i]) return 0.0;
    double value = static_cast<double>(last_report_[i]);
    // The unreported tail behind a sampled report is geometric with mean
    // (1-p)/p; adding it makes the estimator exactly unbiased. The
    // deterministic residual is one-sided (< threshold) and left as-is.
    if (options_.mode == HyzMode::kSampled) value += 1.0 / rate_ - 1.0;
    return value;
  }

  void MaybeStartCollect() {
    if (collecting_) return;
    if (Estimate() < 2.0 * std::max(base_, 1.0)) return;
    StartCollect();
  }

  void StartCollect() {
    collecting_ = true;
    ++collect_epoch_;
    pending_replies_ = static_cast<int>(reported_.size());
    std::fill(collect_replied_.begin(), collect_replied_.end(), false);
    sim::Message m;
    m.type = kCollect;
    m.u = collect_epoch_;
    network_->Broadcast(m);
  }

  void FinishCollect() {
    // Rebuild the exact base from the per-site lifetime totals. On a
    // perfect channel this equals the old sum-of-collected-deltas
    // accumulation exactly (integer arithmetic below 2^53); under faults
    // it is self-healing — a site's missed collect is repaired by its next
    // successful one.
    int64_t lifetime = 0;
    for (const int64_t total : known_total_) lifetime += total;
    base_ = static_cast<double>(options_.initial_total + lifetime);
    std::fill(reported_.begin(), reported_.end(), false);
    std::fill(last_report_.begin(), last_report_.end(), 0);
    contribution_sum_ = 0.0;
    collecting_ = false;
    ++rounds_;
    StartRound();
  }

  HyzOptions options_;
  sim::Network* network_;
  double base_;
  double rate_ = 1.0;
  int64_t threshold_ = 1;
  std::vector<bool> reported_;
  std::vector<int64_t> last_report_;
  /// Lifetime increment count per site, as of its newest collect reply.
  std::vector<int64_t> known_total_;
  std::vector<bool> collect_replied_;
  double contribution_sum_ = 0.0;
  bool collecting_ = false;
  int pending_replies_ = 0;
  int64_t collect_epoch_ = 0;
  int64_t rounds_ = 0;
};

HyzProtocol::HyzProtocol(int num_sites, const HyzOptions& options)
    : network_(num_sites) {
  network_.SetChannel(sim::MakeChannel(options.channel));
  common::Rng seeder(options.seed);
  coordinator_ = std::make_unique<Coordinator>(num_sites, options, &network_);
  network_.AttachCoordinator(coordinator_.get());
  sites_.reserve(static_cast<size_t>(num_sites));
  for (int s = 0; s < num_sites; ++s) {
    sites_.push_back(
        std::make_unique<Site>(s, options.mode, &network_, seeder.Fork(),
                               &inv_log_q_));
    network_.AttachSite(s, sites_.back().get());
  }
  coordinator_->StartRound();
  network_.DeliverAll();
}

HyzProtocol::~HyzProtocol() = default;

int HyzProtocol::num_sites() const { return network_.num_sites(); }

void HyzProtocol::ProcessUpdate(int site_id, double value) {
  NMC_CHECK_EQ(value, 1.0);
  ProcessRun(site_id, 1);
}

int64_t HyzProtocol::ProcessBatch(int site_id, std::span<const double> values) {
  NMC_CHECK(!values.empty());
  const int64_t consumed =
      ProcessRun(site_id, static_cast<int64_t>(values.size()));
  for (int64_t j = 0; j < consumed; ++j) {
    NMC_CHECK_EQ(values[static_cast<size_t>(j)], 1.0);
  }
  return consumed;
}

int64_t HyzProtocol::ProcessRun(int site_id, int64_t count) {
  NMC_CHECK_GE(site_id, 0);
  NMC_CHECK_LT(site_id, num_sites());
  // Under a faulty channel, advance simulated time (delivering anything
  // that came due) and process one increment per call: fast-forwarding a
  // silent run assumes it stays silent, which delayed delivery breaks.
  if (network_.channeled()) {
    network_.BeginTick();
    count = 1;
  }
  const int64_t consumed =
      sites_[static_cast<size_t>(site_id)]->ConsumeRun(count);
  network_.DeliverAll();
  return consumed;
}

bool HyzProtocol::Resync() {
  coordinator_->ForceCollect();
  network_.DeliverAll();
  return true;
}

double HyzProtocol::Estimate() const { return coordinator_->Estimate(); }

const sim::MessageStats& HyzProtocol::stats() const { return network_.stats(); }

double HyzProtocol::current_rate() const { return coordinator_->rate(); }

int64_t HyzProtocol::rounds() const { return coordinator_->rounds(); }

}  // namespace nmc::hyz
