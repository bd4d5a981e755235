#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/atomic_policy.h"

namespace nmc::common {

/// Single-writer seqlock slot: the coordinator's continuously published
/// value (Ŝ_t plus its generation), readable wait-free by any number of
/// threads — readers never write shared state, so a reader can neither
/// block the writer nor other readers.
///
/// Memory-order argument (Boehm, "Can seqlocks get along with programming
/// language memory models?"; acquire/release only):
///   * Writer: seq_ is bumped to odd with a relaxed store, a release fence
///     orders that store before the payload word stores (relaxed), and the
///     final even seq_.store(release) orders the payload stores before the
///     generation readers trust.
///   * Reader: seq_.load(acquire) orders the payload loads after it, an
///     acquire fence orders them before the re-read of seq_; equal even
///     values on both sides prove no writer was active in between, so the
///     copied words are a consistent snapshot.
/// The payload is stored as relaxed atomic<uint64_t> words, not plain
/// memory: a torn read is *detected and discarded* by the protocol above,
/// but the racing accesses themselves must still be data-race-free for the
/// language (and TSan) — relaxed atomics make them so at zero fence cost.
/// Each of the four ordering edges is named with an OrderSite so
/// tools/nmc_race can weaken it in isolation and show the no-torn-read
/// litmus test fail (DESIGN.md §13 has the contract table).
///
/// TryRead / the manual WriteBegin-StoreWord-WriteEnd steps are exposed
/// (rather than just Read/Publish loops) so tests can drive every
/// interleaving of a write deterministically and assert a concurrent read
/// refuses the torn intermediate states.
template <typename T, typename Policy = StdAtomicPolicy>
class Seqlock {
  static_assert(std::is_trivially_copyable_v<T>,
                "Seqlock snapshots are copied word by word");
  static_assert(sizeof(T) % sizeof(uint64_t) == 0,
                "pad T to a multiple of 8 bytes so word copies cover it");

 public:
  static constexpr size_t kWords = sizeof(T) / sizeof(uint64_t);

  /// Readable immediately: generation 0 holds a default-constructed T.
  Seqlock() {
    const T initial{};
    uint64_t words[kWords];
    std::memcpy(words, &initial, sizeof(T));
    for (size_t i = 0; i < kWords; ++i) {
      words_[i].store(words[i], std::memory_order_relaxed);
    }
  }

  Seqlock(const Seqlock&) = delete;
  Seqlock& operator=(const Seqlock&) = delete;

  /// Writer (single thread): publishes `value` as the next generation.
  void Publish(const T& value) {
    WriteBegin();
    uint64_t words[kWords];
    std::memcpy(words, &value, sizeof(T));
    for (size_t i = 0; i < kWords; ++i) StoreWord(i, words[i]);
    WriteEnd();
  }

  /// Reader (any thread): one snapshot attempt. False when a write was in
  /// flight or completed mid-copy — the copy is torn and *out is untouched.
  bool TryRead(T* out) const {
    const uint64_t before = seq_.load(Policy::Order(
        OrderSite::kSeqlockReadAcquire, std::memory_order_acquire));
    if ((before & 1) != 0) return false;
    uint64_t words[kWords];
    for (size_t i = 0; i < kWords; ++i) {
      words[i] = words_[i].load(std::memory_order_relaxed);
    }
    Policy::Fence(OrderSite::kSeqlockReadFence, std::memory_order_acquire);
    if (seq_.load(std::memory_order_relaxed) != before) return false;
    std::memcpy(out, words, sizeof(T));
    return true;
  }

  /// Reader (any thread): retries TryRead until a consistent snapshot
  /// lands. Wait-free in the serving sense: a reader is only ever retried
  /// past by a *completing* writer, never blocked by one.
  T Read() const {
    T out;
    while (!TryRead(&out)) {
    }
    return out;
  }

  /// Generations published so far (the sequence counter is 2x that, odd
  /// exactly while a write is in flight). Relaxed on purpose: the count is
  /// advisory — consistency of any snapshot comes from TryRead's own
  /// acquire protocol, never from ordering against this load — and
  /// nmc_race's mutation harness requires every non-relaxed order here to
  /// be refutable when weakened.
  uint64_t generation() const {
    return seq_.load(std::memory_order_relaxed) / 2;
  }

  // ---- Manual write steps (single writer; exposed for interleaving
  // tests — production writers use Publish) ------------------------------

  /// Marks a write in flight: seq_ becomes odd, readers refuse.
  void WriteBegin() {
    seq_.store(seq_.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
    // Order the odd marker before every payload store below: a reader that
    // observes any new word also observes the odd sequence (or the final
    // even one, which postdates all words).
    Policy::Fence(OrderSite::kSeqlockWriteFence, std::memory_order_release);
  }

  /// Stores payload word `index` of the in-flight write.
  void StoreWord(size_t index, uint64_t word) {
    words_[index].store(word, std::memory_order_relaxed);
  }

  /// Completes the in-flight write: seq_ returns to even, one generation
  /// later; the release store publishes every StoreWord before it.
  void WriteEnd() {
    seq_.store(seq_.load(std::memory_order_relaxed) + 1,
               Policy::Order(OrderSite::kSeqlockWriteRelease,
                             std::memory_order_release));
  }

 private:
  static constexpr size_t kCacheLine = 64;

  /// The sequence counter and payload share one line on purpose: readers
  /// always touch both, and the single writer owns the line between
  /// publishes.
  alignas(kCacheLine) typename Policy::template Atomic<uint64_t> seq_{0};
  typename Policy::template Atomic<uint64_t> words_[kWords];
};

}  // namespace nmc::common
