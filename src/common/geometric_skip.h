#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>

#include "common/batch_rng.h"
#include "common/check.h"

namespace nmc::common {

/// Single-entry memo of 1/log1p(-p), the factor that turns a log-tail into
/// a Geometric(p) gap. One memo serves all of a protocol's skip samplers:
/// after a broadcast every site draws at the same rate, so the log1p runs
/// once per distinct rate per protocol instead of once per site. Pure in
/// p, so sharing it never changes a gap.
class InvLogQMemo {
 public:
  /// 1 / log1p(-p) for p in (0, 1).
  double Get(double p) {
    if (p != p_) {
      p_ = p;
      // memoized: once per distinct rate per protocol (the memo is shared by every site's skip sampler), not per update
      inv_log_q_ = 1.0 / std::log1p(-p);
    }
    return inv_log_q_;
  }

 private:
  double p_ = -1.0;
  double inv_log_q_ = 0.0;
};

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
  /// Sentinel for "no report will ever fire at this rate" (p <= 0), and
  /// the clamp for gaps at or above 2^51. Half of the int64 range so
  /// Advance() arithmetic cannot overflow.
  static constexpr int64_t kInfiniteGap =
      std::numeric_limits<int64_t>::max() / 2;

  /// Gaps come from `batch` as rate-free log-tails, pre-drawn in blocks of
  /// kTailBlock by the vectorized BatchRng::FillLogTails; a draw at rate p
  /// is then one multiply by `memo`'s 1/log1p(-p) and a floor. Both
  /// pointers are non-owning and must outlive the sampler; the sampler
  /// must be `batch`'s only consumer, since it reads the stream ahead.
  /// Construction allocates the block storage once — a setup-time
  /// allocation; it is refilled in place and the serve path never
  /// allocates.
  GeometricSkip(common::BatchRng* batch, InvLogQMemo* memo)
      : batch_(batch), memo_(memo), tails_(std::make_unique<TailBlock>()) {
    NMC_CHECK(batch != nullptr);
    NMC_CHECK(memo != nullptr);
  }

  /// Which stream element a gap comes from. A fresh rate takes the next
  /// element. Once the same rate is requested twice in a row, the sampler
  /// reserves elements for it in runs of kFirstReserve, growing by
  /// kReserveGrowth per run up to kTailBlock (8, 32, 128, 256, 256, ...),
  /// and serves them in order; a rate change skips the unserved rest of
  /// the run. Skipping is exact by memorylessness (the decision never
  /// looks at the skipped values), and the schedule keeps rate ladders
  /// (the single-site chunk walk, where every draw is at a fresh rate)
  /// from skipping more than they plausibly use. It fixes the mapping from
  /// elements to gaps, and so every seeded result; the read-ahead block
  /// is only a cache of the stream.
  ///
  /// The block lives behind a pointer (one setup-time allocation at
  /// construction) rather than inline, deliberately: the refill hands a
  /// span over the block to the out-of-line fill, and if that span were
  /// derived from `this` the compiler would have to assume the call can
  /// touch every member, forcing the serve cursor through memory on each
  /// draw. With the storage external, a sampler that lives in a tight
  /// local loop keeps its cursor in registers between refills.
  static constexpr int kTailBlock = 256;
  static constexpr int kFirstReserve = 8;
  static constexpr int kReserveGrowth = 4;

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
      ServeReserved();
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

  /// floor(log_tail / log1p(-p)) given inv_log_q = 1 / log1p(-p), clamped
  /// to kInfiniteGap at 2^51 (reachable only for astronomically small p)
  /// so the int64 conversion stays exact. log_tail <= 0 and inv_log_q < 0,
  /// so the product is never negative and the truncating conversion is
  /// the floor — without the rounding fix-ups std::floor costs on a
  /// baseline x86-64 target.
  static int64_t GapFromLogTail(double log_tail, double inv_log_q) {
    const double t = log_tail * inv_log_q;
    return t >= 0x1.0p51 ? kInfiniteGap : static_cast<int64_t>(t);
  }

 private:
  /// Repeat-rate draw: the next element of the current reservation,
  /// opening the next run of the schedule when it is spent.
  void ServeReserved() {
    if (reserved_ == 0) {
      reserved_ = reserve_next_;
      reserve_next_ = std::min(reserve_next_ * kReserveGrowth, kTailBlock);
    }
    --reserved_;
    gap_ = GapFromLogTail(NextTail(), inv_log_q_);
  }

  /// First draw at a non-degenerate rate: skip what is left of the old
  /// rate's reservation, take one element, and restart the schedule so
  /// only a repeat of this rate reserves more.
  void DrawAtFreshRate(double rate) {
    Skip(reserved_);
    reserved_ = 0;
    reserve_next_ = kFirstReserve;
    feed_rate_ = rate;
    inv_log_q_ = memo_->Get(rate);
    gap_ = GapFromLogTail(NextTail(), inv_log_q_);
  }

  double NextTail() {
    if (pos_ == kTailBlock) Refill();
    return (*tails_)[static_cast<size_t>(pos_++)];
  }

  /// Drops the next `count` (<= kTailBlock) stream elements.
  void Skip(int count) {
    pos_ += count;
    if (pos_ > kTailBlock) {
      const int into_next = pos_ - kTailBlock;
      Refill();
      pos_ = into_next;
    }
  }

  void Refill() {
    batch_->FillLogTails(std::span<double>(tails_->data(), tails_->size()));
    pos_ = 0;
  }

  bool valid_ = false;
  int64_t gap_ = 0;
  using TailBlock = std::array<double, kTailBlock>;
  common::BatchRng* batch_;
  InvLogQMemo* memo_;
  /// Rate of the last feed draw and its 1/log1p(-p). NaN until the first
  /// one, so that no rate — not even a degenerate one — matches it.
  double feed_rate_ = std::numeric_limits<double>::quiet_NaN();
  double inv_log_q_ = 0.0;
  /// Elements left in the current reservation, and the next one's size.
  int reserved_ = 0;
  int reserve_next_ = kFirstReserve;
  /// (*tails_)[pos_..kTailBlock) are drawn but not yet used.
  int pos_ = kTailBlock;
  std::unique_ptr<TailBlock> tails_;
};

}  // namespace nmc::common
