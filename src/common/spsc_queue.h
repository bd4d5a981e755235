#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "common/atomic_policy.h"
#include "common/check.h"

namespace nmc::common {

/// Compile-time capacity tag for SpscQueue: rejects zero and
/// non-power-of-two capacities at compile time. Capacity 1 is allowed — a
/// single-slot ring degrades to a strict ping-pong hand-off.
template <size_t kN>
struct RingCapacity {
  static_assert(kN >= 1, "SpscQueue capacity must be at least 1");
  static_assert((kN & (kN - 1)) == 0,
                "SpscQueue capacity must be a power of two");
};

/// Bounded lock-free single-producer/single-consumer ring buffer — the
/// mailbox of the threaded transport backend (one producer thread, one
/// consumer thread, no other access).
///
/// Memory-order argument (acquire/release only, no seq_cst):
///   * The producer writes slot contents (plain, non-atomic T) and then
///     publishes them with tail_.store(release). The consumer observes the
///     new tail with tail_.load(acquire), so every slot write
///     happens-before the consumer's read of that slot.
///   * Symmetrically, the consumer retires slots with head_.store(release)
///     and the producer re-checks capacity with head_.load(acquire), so a
///     slot is never overwritten before its previous occupant has been
///     fully read.
/// Each edge is named with an OrderSite so tools/nmc_race can weaken it in
/// isolation and show a litmus test fail (see DESIGN.md §13 for the
/// site-by-site contract table).
/// head_ and tail_ live on separate cache lines (and each side keeps a
/// relaxed-read cache of the other's index) so the steady state costs one
/// uncontended atomic per side per batch, not a ping-ponging line.
///
/// Indices grow monotonically and are mapped to slots with a power-of-two
/// mask; at 2^64 pushes the counters would wrap, which at 10^9
/// updates/second is ~580 years — out of scope.
template <typename T, typename Policy = StdAtomicPolicy>
class SpscQueue {
  static_assert(std::is_trivially_copyable_v<T>,
                "SpscQueue slots are copied across threads raw");

 public:
  /// Exact compile-time capacity; rejects invalid sizes via the tag's
  /// static_asserts and permits a capacity-1 ring.
  template <size_t kN>
  explicit SpscQueue(RingCapacity<kN>) : mask_(kN - 1), slots_(kN) {}

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  size_t capacity() const { return mask_ + 1; }

  /// Either side: a snapshot of the queued count (exact only from within
  /// the owning thread of one end; advisory across threads). Relaxed on
  /// purpose: no slot access is ordered against this value, so there is no
  /// pairing edge for an acquire to complete — nmc_race's mutation harness
  /// requires every non-relaxed order here to be refutable when weakened.
  size_t SizeApprox() const {
    return static_cast<size_t>(tail_.load(std::memory_order_relaxed) -
                               head_.load(std::memory_order_relaxed));
  }

  /// There is no scalar push or pop: one item is a one-item span, pushed
  /// with TryPushSpan and taken with PeekContiguous(1) and Advance(1), the
  /// calls nmc_race's spsc-wrap cases model-check.
  /// Producer: enqueues as many leading items of `items` as fit and
  /// returns the count (0 when full). Never blocks.
  size_t TryPushSpan(std::span<const T> items) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    size_t free = capacity() - static_cast<size_t>(tail - cached_head_);
    if (free < items.size()) {
      // Refresh the consumer's progress only when the cache says "full-ish"
      // — this is the line transfer the cache exists to amortize.
      cached_head_ = head_.load(
          Policy::Order(OrderSite::kSpscHeadAcquire, std::memory_order_acquire));
      free = capacity() - static_cast<size_t>(tail - cached_head_);
      if (free == 0) return 0;
    }
    const size_t take = free < items.size() ? free : items.size();
    for (size_t i = 0; i < take; ++i) {
      slots_.Store(static_cast<size_t>(tail + i) & mask_, items[i]);
    }
    tail_.store(tail + take, Policy::Order(OrderSite::kSpscTailRelease,
                                           std::memory_order_release));
    return take;
  }

  /// Consumer: a borrowed view of up to `max_items` queued items that are
  /// contiguous in the ring (a batch ending at the wrap point may be split
  /// across two calls). The view stays valid until Advance() consumes past
  /// it. Empty span when the queue is empty.
  std::span<const T> PeekContiguous(size_t max_items) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (cached_tail_ == head) {
      cached_tail_ = tail_.load(
          Policy::Order(OrderSite::kSpscTailAcquire, std::memory_order_acquire));
      if (cached_tail_ == head) return {};
    }
    size_t avail = static_cast<size_t>(cached_tail_ - head);
    const size_t until_wrap = capacity() - static_cast<size_t>(head & mask_);
    if (avail > until_wrap) avail = until_wrap;
    if (avail > max_items) avail = max_items;
    return slots_.View(static_cast<size_t>(head & mask_), avail);
  }

  /// Consumer: retires `count` items previously observed via
  /// PeekContiguous, releasing their slots to the producer.
  void Advance(size_t count) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    NMC_CHECK_LE(count, static_cast<size_t>(cached_tail_ - head));
    head_.store(head + count, Policy::Order(OrderSite::kSpscHeadRelease,
                                            std::memory_order_release));
  }

 private:
  static constexpr size_t kCacheLine = 64;

  size_t mask_ = 0;
  typename Policy::template SlotArray<T> slots_;
  /// Producer-owned line: the publish index plus the producer's cache of
  /// the consumer's progress.
  alignas(kCacheLine) typename Policy::template Atomic<uint64_t> tail_{0};
  uint64_t cached_head_ = 0;
  /// Consumer-owned line, symmetrically.
  alignas(kCacheLine) typename Policy::template Atomic<uint64_t> head_{0};
  uint64_t cached_tail_ = 0;
};

}  // namespace nmc::common
