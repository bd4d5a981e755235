#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nmc::common {

/// The transparent-huge-page size on x86-64 and arm64 with 4 KiB base
/// pages: one fault maps 2 MiB instead of 4 KiB.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

/// A byte range [begin, begin + length).
struct ByteRange {
  uintptr_t begin = 0;
  size_t length = 0;
};

/// The largest 2 MiB-aligned range inside [begin, begin + bytes): begin
/// rounded up and the end rounded down to kHugePageBytes. Empty (length 0)
/// when the range holds no whole huge page, which is always the case below
/// 2 MiB.
constexpr ByteRange HugePageInterior(uintptr_t begin, size_t bytes) {
  if (bytes < kHugePageBytes) return {};
  const uintptr_t mask = kHugePageBytes - 1;
  const uintptr_t first = (begin + mask) & ~mask;
  const uintptr_t last = (begin + bytes) & ~mask;
  if (last <= first) return {};
  return {first, static_cast<size_t>(last - first)};
}

/// Advises the kernel to back HugePageInterior(data, bytes) with
/// transparent huge pages (MADV_HUGEPAGE). Does nothing when the interior
/// is empty or off Linux; a refusal by the kernel is ignored, since the
/// advice changes only which pages hold the bytes, never their values.
void AdviseHugePages(const void* data, size_t bytes);

/// An empty vector with capacity for `n` elements whose storage went
/// through AdviseHugePages before any element was touched, so the first
/// write faults 2 MiB at a time rather than 4 KiB. For buffers that hold
/// O(n) stream elements; the caller resizes or pushes into it.
template <typename T>
std::vector<T> ReserveStreamBuffer(size_t n) {
  std::vector<T> buffer;
  buffer.reserve(n);
  AdviseHugePages(buffer.data(), n * sizeof(T));
  return buffer;
}

}  // namespace nmc::common
