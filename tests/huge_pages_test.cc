#include "common/huge_pages.h"

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace nmc::common {
namespace {

constexpr uintptr_t kHuge = kHugePageBytes;

static_assert(kHugePageBytes == 2 * 1024 * 1024);
static_assert(HugePageInterior(0, kHugePageBytes - 1).length == 0);
static_assert(HugePageInterior(kHuge, kHugePageBytes).begin == kHuge);
static_assert(HugePageInterior(kHuge, kHugePageBytes).length ==
              kHugePageBytes);

// The interior starts and ends on 2 MiB boundaries, lies inside the range,
// and is the largest such range: neither end leaves a whole huge page out.
void ExpectTightAlignedInterior(uintptr_t begin, size_t bytes) {
  const ByteRange interior = HugePageInterior(begin, bytes);
  SCOPED_TRACE(::testing::Message() << "begin=" << begin << " bytes=" << bytes);
  if (interior.length == 0) {
    // Empty only when no aligned 2 MiB block fits.
    const uintptr_t first = (begin + kHuge - 1) / kHuge * kHuge;
    EXPECT_GT(first + kHuge, begin + bytes);
    return;
  }
  EXPECT_EQ(interior.begin % kHuge, 0u);
  EXPECT_EQ(interior.length % kHugePageBytes, 0u);
  EXPECT_GE(interior.begin, begin);
  EXPECT_LE(interior.begin + interior.length, begin + bytes);
  EXPECT_LT(interior.begin - begin, kHuge);
  EXPECT_LT(begin + bytes - (interior.begin + interior.length), kHuge);
}

TEST(HugePagesTest, InteriorIsEmptyBelowTwoMebibytes) {
  for (const size_t bytes : {size_t{0}, size_t{1}, size_t{4096},
                             kHugePageBytes / 2, kHugePageBytes - 1}) {
    for (const uintptr_t begin : {uintptr_t{0}, kHuge, kHuge + 16}) {
      const ByteRange interior = HugePageInterior(begin, bytes);
      EXPECT_EQ(interior.length, 0u) << "bytes=" << bytes;
    }
  }
}

TEST(HugePagesTest, InteriorRoundsInwardToTwoMebibyteBoundaries) {
  // A malloc'd chunk: 16 bytes past a page boundary, 128 MiB long.
  const uintptr_t begin = 7 * kHuge + 4096 + 16;
  const size_t stream_bytes = size_t{128} << 20;
  const ByteRange interior = HugePageInterior(begin, stream_bytes);
  EXPECT_EQ(interior.begin, 8 * kHuge);
  EXPECT_EQ(interior.length, size_t{126} << 20);

  // Exactly one huge page, aligned, is its own interior; shifted by one
  // byte either way it holds none.
  EXPECT_EQ(HugePageInterior(3 * kHuge, kHugePageBytes).length,
            kHugePageBytes);
  EXPECT_EQ(HugePageInterior(3 * kHuge + 1, kHugePageBytes).length, 0u);
  EXPECT_EQ(HugePageInterior(3 * kHuge - 1, kHugePageBytes).length, 0u);

  for (const uintptr_t offset :
       {uintptr_t{0}, uintptr_t{16}, uintptr_t{4096}, kHuge - 16, kHuge - 1}) {
    for (const size_t bytes :
         {kHugePageBytes, kHugePageBytes + 1, 2 * kHugePageBytes - 1,
          2 * kHugePageBytes, 3 * kHugePageBytes + 12345}) {
      ExpectTightAlignedInterior(5 * kHuge + offset, bytes);
    }
  }
}

TEST(HugePagesTest, ReserveStreamBufferIsEmptyWithTheCapacity) {
  for (const size_t n : {size_t{0}, size_t{1}, size_t{1000},
                         (size_t{1} << 20) + 3}) {
    std::vector<double> buffer = ReserveStreamBuffer<double>(n);
    EXPECT_TRUE(buffer.empty());
    EXPECT_GE(buffer.capacity(), n);
    // The advice never changes what the buffer holds.
    buffer.assign(n, -1.0);
    for (const double value : buffer) ASSERT_EQ(value, -1.0);
  }
}

}  // namespace
}  // namespace nmc::common
