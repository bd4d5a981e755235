#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>

#include "common/batch_rng.h"
#include "common/check.h"

namespace nmc::common {

/// Vitter-style skip sampler: for a Bernoulli(p) coin sequence with a
/// frozen rate p, the number of tails before the next head is
/// Geometric(p), so a site can consume a whole inter-report run in O(1)
/// instead of flipping O(gap) coins. The cached gap stays valid only
/// while the rate it was drawn at still applies; the owner must call
/// Invalidate() whenever a broadcast (or any other state change) moves
/// the rate. Header-only so that nmc_hyz can use it without linking
/// nmc_core.
///
/// Rates that drift *downward* between invalidations (e.g. the decaying
/// drift-guard term) are handled by thinning: draw the gap at a
/// dominating rate `dom >= p_t`, then accept each candidate with
/// probability p_t / dom — the compound is exactly Bernoulli(p_t) per
/// update. Memorylessness makes it exact to discard a partially consumed
/// gap at any boundary that is deterministic given the coins already
/// realized (a chunk-span expiry or an incoming broadcast).
class GeometricSkip {
 public:
  /// Sentinel for "no report will ever fire at this rate" (p <= 0). Half
  /// of the int64 range so Advance() arithmetic cannot overflow.
  static constexpr int64_t kInfiniteGap =
      std::numeric_limits<int64_t>::max() / 2;

  /// Gaps come from `batch`, a vectorized bulk feed, instead of one scalar
  /// transcendental per run. The feed only pre-draws a block once the
  /// same rate is requested twice in a row, so rate ladders (the
  /// single-site chunk walk, where every draw is at a fresh rate) never
  /// waste bulk draws, while frozen-rate consumers (HYZ rounds, SBC
  /// stages) amortize one log1p over kFeedBlockGaps draws. Pre-drawn gaps
  /// are discarded on any rate change — exact by memorylessness, since
  /// the discard decision never looks at the unexamined values. The
  /// pointer is non-owning and must outlive the sampler. Construction
  /// allocates the block storage once — a setup-time allocation; the
  /// serve path itself never allocates.
  explicit GeometricSkip(common::BatchRng* batch)
      : batch_(batch), feed_store_(std::make_unique<FeedBlock>()) {
    NMC_CHECK(batch != nullptr);
  }

  /// Cap on gaps pre-drawn per block. Blocks start at kFeedFirstBlockGaps
  /// on the first repeat of a rate and grow by kFeedBlockGrowth per refill
  /// up to this cap: truly frozen-rate consumers reach full amortization
  /// (a small fraction of a nanosecond of fill fixed costs per gap) within
  /// three refills, while consumers whose rate drifts every few dozen
  /// draws (the single-site chunk walk between restarts) never pre-draw —
  /// and so never discard — more than they plausibly use. Discards are
  /// free in distribution by memorylessness; the growth schedule only
  /// bounds the wasted fill work.
  ///
  /// The block lives behind a pointer (one setup-time allocation at
  /// construction) rather than inline, deliberately: the refill hands a
  /// span over the block to the out-of-line fill, and if that span were
  /// derived from `this` the compiler would have to assume the call can
  /// touch every member, forcing the serve cursor through memory on each
  /// draw. With the storage external, a sampler that lives in a tight
  /// local loop keeps its cursor in registers between refills — worth
  /// about 2 ns/draw on the serve fast path.
  static constexpr int kFeedBlockGaps = 256;
  static constexpr int kFeedFirstBlockGaps = 8;
  static constexpr int kFeedBlockGrowth = 4;

  bool valid() const { return valid_; }

  /// Discards the cached gap. Must be called whenever the (dominating)
  /// rate the gap was drawn at stops applying.
  void Invalidate() { valid_ = false; }

  /// Draws a fresh Geometric(rate) gap unless one is already cached.
  /// Matches Rng::Bernoulli's clamps: rate >= 1 reports immediately and
  /// rate <= 0 never reports (kInfiniteGap), neither consuming the feed.
  void EnsureGap(double rate) {
    if (valid_) return;
    if (rate == feed_rate_) {
      // Hottest path — a frozen-rate consumer. feed_rate_ is only ever
      // set by a feed draw, so a match implies a non-degenerate rate; the
      // degenerate checks below are skipped without being weakened.
      ServeFromFeedBlock();
    } else if (rate >= 1.0) {
      gap_ = 0;
    } else if (rate <= 0.0) {
      gap_ = kInfiniteGap;
    } else {
      DrawAtFreshRate(rate);
    }
    valid_ = true;
  }

  /// Updates left before the next candidate. Only meaningful while
  /// valid().
  int64_t gap() const {
    NMC_CHECK(valid_);
    return gap_;
  }

  /// Consumes `steps` candidate-free updates (steps <= gap()).
  void Advance(int64_t steps) {
    NMC_CHECK(valid_);
    NMC_CHECK_GE(steps, 0);
    NMC_CHECK_LE(steps, gap_);
    gap_ -= steps;
  }

  /// Consumes the candidate update itself (requires gap() == 0); the next
  /// EnsureGap starts a fresh inter-report run.
  void TakeCandidate() {
    NMC_CHECK(valid_);
    NMC_CHECK_EQ(gap_, 0);
    valid_ = false;
  }

 private:
  /// Repeat-rate draw: serve the next pre-drawn gap, refilling a block
  /// (at the current rung of the growth schedule) when the previous one
  /// is spent.
  void ServeFromFeedBlock() {
    if (feed_pos_ == feed_len_) {
      batch_->FillGeometricGaps(
          std::span<int64_t>(feed_store_->data(),
                             static_cast<size_t>(feed_fill_)),
          feed_rate_);
      feed_len_ = feed_fill_;
      feed_pos_ = 0;
      feed_fill_ = std::min(feed_fill_ * kFeedBlockGrowth, kFeedBlockGaps);
    }
    gap_ = (*feed_store_)[static_cast<size_t>(feed_pos_++)];
  }

  /// First draw at a non-degenerate rate: one single-gap draw, and the
  /// block schedule restarts so only a repeat of this rate buys a block.
  void DrawAtFreshRate(double rate) {
    feed_rate_ = rate;
    feed_pos_ = 0;
    feed_len_ = 0;
    feed_fill_ = kFeedFirstBlockGaps;
    int64_t single = 0;
    batch_->FillGeometricGaps(std::span<int64_t>(&single, 1), rate);
    gap_ = single;
  }

  bool valid_ = false;
  int64_t gap_ = 0;
  /// Feed state. *feed_store_ holds pre-drawn gaps at feed_rate_; entries
  /// feed_pos_..feed_len_-1 are still unconsumed.
  using FeedBlock = std::array<int64_t, kFeedBlockGaps>;
  common::BatchRng* batch_;
  double feed_rate_ = -1.0;
  int feed_pos_ = 0;
  int feed_len_ = 0;
  int feed_fill_ = kFeedFirstBlockGaps;  // next refill size (growth rung)
  std::unique_ptr<FeedBlock> feed_store_;
};

}  // namespace nmc::common
