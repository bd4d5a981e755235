#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/check.h"

namespace nmc::sim {

/// Bump allocator for per-tick simulation state (message queues, delayed
/// deliveries). Allocation is a pointer bump; there is no per-object free.
/// Reset() rewinds every block for reuse without returning memory to the
/// system, so after warm-up the steady state performs no heap allocation
/// at all — the property the NO_HEAP_IN_HOT_PATH lint rule and the
/// counting-allocator test enforce for the update path.
///
/// Lifetime contract: Allocate() results are valid until the next Reset().
/// Owners of arena-backed containers must drop (or re-build) their storage
/// across a Reset; ArenaVector::ReleaseStorage exists for exactly that
/// hand-off. The arena never runs destructors — only trivially
/// destructible payloads may live here.
class Arena {
 public:
  static constexpr size_t kDefaultBlockBytes = 4096;

  explicit Arena(size_t initial_block_bytes = kDefaultBlockBytes)
      : next_block_bytes_(initial_block_bytes) {
    NMC_CHECK_GE(initial_block_bytes, 64);
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` bytes aligned to `align` (a power of two). Never
  /// fails for sane inputs: a request larger than the next block size gets
  /// a dedicated block.
  void* Allocate(size_t bytes, size_t align) {
    NMC_CHECK_GT(align, 0);
    NMC_CHECK_EQ(align & (align - 1), 0);  // power of two
    const size_t aligned = (offset_ + align - 1) & ~(align - 1);
    if (active_ >= blocks_.size() || aligned + bytes > blocks_[active_].size) {
      return AllocateSlow(bytes, align);
    }
    Block& block = blocks_[active_];
    offset_ = aligned + bytes;
    in_use_ += bytes;
    if (in_use_ > high_water_) high_water_ = in_use_;
    return block.data.get() + aligned;
  }

  /// Rewinds every block for reuse. No memory is returned to the system
  /// (reserved_bytes() is unchanged); everything previously allocated is
  /// invalidated.
  void Reset() {
    active_ = 0;
    offset_ = 0;
    in_use_ = 0;
  }

  /// Live bytes handed out since the last Reset (payload only, excluding
  /// alignment padding).
  size_t bytes_in_use() const { return in_use_; }

  /// Max of bytes_in_use() over the arena's lifetime — the per-tick
  /// footprint benches report via MessageStats.
  size_t high_water_bytes() const { return high_water_; }

  /// Total block bytes obtained from the system so far.
  size_t reserved_bytes() const { return reserved_; }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    size_t size = 0;
  };

  void* AllocateSlow(size_t bytes, size_t align);

  std::vector<Block> blocks_;
  size_t active_ = 0;  // block the bump cursor lives in
  size_t offset_ = 0;  // cursor within blocks_[active_]
  size_t in_use_ = 0;
  size_t high_water_ = 0;
  size_t reserved_ = 0;
  size_t next_block_bytes_;
};

/// Minimal vector whose storage comes from an Arena: push_back (or an
/// in-place emplace_back) is a bump cursor away, growth abandons the old
/// storage to the arena (reclaimed wholesale at the next Reset), and
/// nothing is ever freed per element.
/// Restricted to trivially copyable T — the arena runs no destructors and
/// growth relocates with memcpy semantics.
///
/// The owner must call ReleaseStorage() before (or instead of) any
/// Arena::Reset that could reclaim this vector's storage; size() must be 0
/// at that point — resetting under live elements is a use-after-rewind.
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaVector payloads must be trivially copyable");
  static_assert(std::is_trivially_destructible_v<T>,
                "the arena never runs destructors");

 public:
  explicit ArenaVector(Arena* arena) : arena_(arena) {
    NMC_CHECK(arena != nullptr);
  }

  ArenaVector(const ArenaVector&) = delete;
  ArenaVector& operator=(const ArenaVector&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }

  T& operator[](size_t i) {
    NMC_CHECK_LT(i, size_);
    return data_[i];
  }
  const T& operator[](size_t i) const {
    NMC_CHECK_LT(i, size_);
    return data_[i];
  }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  void push_back(const T& value) {
    if (size_ == capacity_) Grow(size_ + 1);
    data_[size_++] = value;
  }

  /// Appends one element and returns its slot for the caller to fill in
  /// place. The slot holds whatever bytes the storage held: write every
  /// field. The reference is invalidated by the next growth.
  T& emplace_back() {
    if (size_ == capacity_) Grow(size_ + 1);
    return data_[size_++];
  }

  void reserve(size_t capacity) {
    if (capacity > capacity_) Grow(capacity);
  }

  /// Keeps the first `count` elements (count <= size()). Storage is
  /// untouched — this is the in-place compaction the delayed queue uses.
  void resize_down(size_t count) {
    NMC_CHECK_LE(count, size_);
    size_ = count;
  }

  void clear() { size_ = 0; }

  /// Forgets the storage entirely (size and capacity drop to zero) so the
  /// owner may Reset() the arena; the next push_back re-allocates from the
  /// rewound arena. Call only when empty — anything else would silently
  /// discard live elements.
  void ReleaseStorage() {
    NMC_CHECK_EQ(size_, 0);
    data_ = nullptr;
    capacity_ = 0;
  }

 private:
  void Grow(size_t min_capacity) {
    size_t next = capacity_ == 0 ? 8 : capacity_ * 2;
    if (next < min_capacity) next = min_capacity;
    T* grown = static_cast<T*>(arena_->Allocate(next * sizeof(T), alignof(T)));
    for (size_t i = 0; i < size_; ++i) grown[i] = data_[i];
    data_ = grown;  // old storage is abandoned to the arena until Reset
    capacity_ = next;
  }

  Arena* arena_;
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace nmc::sim
