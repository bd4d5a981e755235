#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>

namespace nmc::common {

/// Every named acquire/release edge (store, load, or fence) in the
/// lock-free primitives. The names exist for the `tools/nmc_race` mutation
/// harness: it re-runs the litmus suite with exactly one site weakened to
/// relaxed and demands a violation, proving each declared order is
/// load-bearing. Production code never branches on a site —
/// StdAtomicPolicy::Order is a constexpr identity.
enum class OrderSite {
  /// Producer refreshes its cache of the consumer's head (pairs with
  /// kSpscHeadRelease): slots are never overwritten before their previous
  /// occupant's reads happened-before this load.
  kSpscHeadAcquire,
  /// Producer publishes filled slots by advancing tail (pairs with
  /// kSpscTailAcquire): slot writes happen-before the consumer's reads.
  kSpscTailRelease,
  /// Consumer refreshes its cache of the producer's tail.
  kSpscTailAcquire,
  /// Consumer retires read slots by advancing head.
  kSpscHeadRelease,
  /// Reader's first load of the seqlock sequence counter (pairs with
  /// kSeqlockWriteRelease): payload loads are ordered after it.
  kSeqlockReadAcquire,
  /// Reader's fence between the payload loads and the sequence re-read.
  kSeqlockReadFence,
  /// Writer's fence ordering the odd marker before the payload stores
  /// (pairs with kSeqlockReadFence).
  kSeqlockWriteFence,
  /// Writer's final even sequence store publishing the payload.
  kSeqlockWriteRelease,
  kCount
};

/// Production atomics policy: a zero-cost passthrough to std::atomic.
///
/// `SpscQueue` and `Seqlock` are templated over a policy so the same
/// source instantiates two ways: with this policy (the default) every
/// operation lowers to the raw std::atomic call it replaced — Order() is a
/// constexpr identity and SlotArray is a bare array, so codegen is
/// bit-identical to the pre-shim primitives — while `tools/nmc_race`
/// instantiates them with a model policy whose every atomic op yields to a
/// deterministic scheduler that enumerates interleavings under a
/// C++11-faithful visibility model.
struct StdAtomicPolicy {
  template <typename T>
  using Atomic = std::atomic<T>;

  /// The declared order IS the executed order; sites only matter to the
  /// model policy's mutation harness.
  static constexpr std::memory_order Order(OrderSite /*site*/,
                                           std::memory_order declared) {
    return declared;
  }

  static void Fence(OrderSite site, std::memory_order declared) {
    std::atomic_thread_fence(Order(site, declared));
  }

  /// Slot storage for the policy-generic ring: plain memory here (View is
  /// a borrowed zero-copy span straight into it); the model policy's
  /// SlotArray instruments every Store/View with vector-clock data-race
  /// detection, which is how a weakened publish order is caught — the
  /// consumer's slot read loses its happens-before edge to the producer's
  /// slot write.
  template <typename T>
  class SlotArray {
   public:
    explicit SlotArray(size_t size) : slots_(std::make_unique<T[]>(size)) {}

    void Store(size_t index, const T& value) { slots_[index] = value; }

    std::span<const T> View(size_t begin, size_t count) const {
      return {&slots_[begin], count};
    }

   private:
    std::unique_ptr<T[]> slots_;
  };
};

/// The one spelling of an atomic that src/runtime concurrency may use.
/// Routing the runtime's flags and counters through the policy keeps them
/// nominally model-checkable and lets the NO_RAW_ATOMIC_IN_RUNTIME lint
/// rule prove no raw std::atomic sneaks into the concurrent layer.
template <typename T>
using RuntimeAtomic = StdAtomicPolicy::Atomic<T>;

}  // namespace nmc::common
