#include "common/spsc_queue.h"

#include <cstdint>
#include <numeric>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

namespace nmc::common {
namespace {

/// One item through the span calls, the ring's only push/pop: a one-item
/// TryPushSpan, and a one-item PeekContiguous followed by Advance(1).
template <typename T>
bool PushOne(SpscQueue<T>& queue, std::type_identity_t<T> item) {
  return queue.TryPushSpan(std::span<const T>(&item, 1)) == 1;
}

template <typename T>
bool PopOne(SpscQueue<T>& queue, T* out) {
  const std::span<const T> view = queue.PeekContiguous(1);
  if (view.empty()) return false;
  *out = view.front();
  queue.Advance(1);
  return true;
}

TEST(SpscQueueTest, FifoSingleThread) {
  SpscQueue<int> queue(RingCapacity<8>{});
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(PushOne(queue, i));
  EXPECT_FALSE(PushOne(queue, 99)) << "full queue must refuse";
  int out = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(PopOne(queue, &out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(PopOne(queue, &out)) << "empty queue must refuse";
}

TEST(SpscQueueTest, WraparoundAtCapacityBoundary) {
  // Capacity 4; drive the indices far past one lap so every slot is
  // reused many times and the monotonic-index-with-mask arithmetic is
  // exercised across the wrap.
  SpscQueue<int64_t> queue(RingCapacity<4>{});
  int64_t next_push = 0;
  int64_t next_pop = 0;
  for (int round = 0; round < 100; ++round) {
    while (PushOne(queue, next_push)) ++next_push;
    int64_t out = -1;
    while (PopOne(queue, &out)) {
      ASSERT_EQ(out, next_pop);
      ++next_pop;
    }
  }
  EXPECT_EQ(next_push, next_pop);
  EXPECT_GE(next_push, 100 * 4);
}

TEST(SpscQueueTest, PeekContiguousSplitsAtWrap) {
  SpscQueue<int> queue(RingCapacity<4>{});
  // Advance the ring so the next batch straddles the physical end:
  // push 3, pop 3 (head = tail = 3), then push 4 (slots 3, 0, 1, 2).
  int out = -1;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(PushOne(queue, i));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(PopOne(queue, &out));
  for (int i = 10; i < 14; ++i) ASSERT_TRUE(PushOne(queue, i));

  // First peek stops at the wrap point: one item (slot 3).
  std::span<const int> view = queue.PeekContiguous(16);
  ASSERT_EQ(view.size(), 1u);
  EXPECT_EQ(view[0], 10);
  queue.Advance(view.size());

  // Second peek returns the remainder from the ring's start.
  view = queue.PeekContiguous(16);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0], 11);
  EXPECT_EQ(view[2], 13);
  queue.Advance(view.size());
  EXPECT_TRUE(queue.PeekContiguous(1).empty());
}

TEST(SpscQueueTest, TryPushSpanTakesWhatFits) {
  SpscQueue<int> queue(RingCapacity<8>{});
  std::vector<int> items(12);
  std::iota(items.begin(), items.end(), 0);
  EXPECT_EQ(queue.TryPushSpan(items), 8u);
  EXPECT_EQ(queue.TryPushSpan(std::span<const int>(items).subspan(8)), 0u);
  int out = -1;
  ASSERT_TRUE(PopOne(queue, &out));
  EXPECT_EQ(out, 0);
  // One slot freed: exactly one more fits.
  EXPECT_EQ(queue.TryPushSpan(std::span<const int>(items).subspan(8)), 1u);
  for (int expected = 1; expected <= 8; ++expected) {
    ASSERT_TRUE(PopOne(queue, &out));
    EXPECT_EQ(out, expected);
  }
}

TEST(SpscQueueTest, BulkPushMatchesOneItemPushes) {
  SpscQueue<int> bulk(RingCapacity<16>{});
  SpscQueue<int> single(RingCapacity<16>{});
  std::vector<int> items(10);
  std::iota(items.begin(), items.end(), 100);
  ASSERT_EQ(bulk.TryPushSpan(items), items.size());
  for (const int item : items) ASSERT_TRUE(PushOne(single, item));
  int a = -1, b = -1;
  while (PopOne(bulk, &a)) {
    ASSERT_TRUE(PopOne(single, &b));
    EXPECT_EQ(a, b);
  }
  EXPECT_FALSE(PopOne(single, &b));
}

// RingCapacity admits every power of two, 1 included, so the degenerate
// one-slot ring is constructible and must ping-pong.
TEST(SpscQueueTest, RingCapacityTagAllowsCapacityOne) {
  SpscQueue<int> queue(RingCapacity<1>{});
  EXPECT_EQ(queue.capacity(), 1u);
  int out = -1;
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(PushOne(queue, round));
    EXPECT_FALSE(PushOne(queue, 99)) << "one-slot ring must refuse a second";
    ASSERT_TRUE(PopOne(queue, &out));
    EXPECT_EQ(out, round);
    EXPECT_FALSE(PopOne(queue, &out)) << "drained ring must refuse";
  }
}

// Exact-wraparound peek on the one-slot ring: every single item sits at
// the physical boundary, so PeekContiguous must never hand out a view
// that runs past the end of the slot array.
TEST(SpscQueueTest, PeekContiguousExactWrapCapacityOne) {
  SpscQueue<int> queue(RingCapacity<1>{});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(PushOne(queue, i));
    const std::span<const int> view = queue.PeekContiguous(16);
    ASSERT_EQ(view.size(), 1u) << "view must stop at the wrap";
    EXPECT_EQ(view[0], i);
    queue.Advance(view.size());
    EXPECT_TRUE(queue.PeekContiguous(1).empty());
  }
}

// Capacity-2 ring peeked exactly at the wrap point: head parked on slot 1
// with both slots full means the contiguous view is exactly one item (the
// physical tail of the array), and the remainder arrives in a second view
// from slot 0.
TEST(SpscQueueTest, PeekContiguousExactWrapCapacityTwo) {
  SpscQueue<int> queue(RingCapacity<2>{});
  int out = -1;
  ASSERT_TRUE(PushOne(queue, 0));
  ASSERT_TRUE(PopOne(queue, &out));  // park head/tail on slot 1
  ASSERT_TRUE(PushOne(queue, 10));   // slot 1
  ASSERT_TRUE(PushOne(queue, 11));   // wraps into slot 0

  std::span<const int> view = queue.PeekContiguous(2);
  ASSERT_EQ(view.size(), 1u) << "first view ends at the physical boundary";
  EXPECT_EQ(view[0], 10);
  queue.Advance(view.size());

  view = queue.PeekContiguous(2);
  ASSERT_EQ(view.size(), 1u);
  EXPECT_EQ(view[0], 11);
  queue.Advance(view.size());
  EXPECT_TRUE(queue.PeekContiguous(1).empty());
}

// TryPushSpan must split its batch at the seam of a capacity-2 ring the
// same way one-item pushes would land, with nothing lost on either side.
TEST(SpscQueueTest, TryPushSpanSplitsAtExactWrapCapacityTwo) {
  SpscQueue<int> queue(RingCapacity<2>{});
  int out = -1;
  ASSERT_TRUE(PushOne(queue, 0));
  ASSERT_TRUE(PopOne(queue, &out));  // next write wraps after one slot
  const std::vector<int> items = {20, 21, 22};
  EXPECT_EQ(queue.TryPushSpan(items), 2u) << "only the ring fits";
  ASSERT_TRUE(PopOne(queue, &out));
  EXPECT_EQ(out, 20);
  ASSERT_TRUE(PopOne(queue, &out));
  EXPECT_EQ(out, 21);
  EXPECT_FALSE(PopOne(queue, &out));
}

// Two-thread stress: a tight ring (capacity 64) forces constant
// backpressure, so the head/tail release/acquire edges are exercised at
// every wrap. Run under TSan in CI; any missing ordering is a reported
// race on the slot memory.
TEST(SpscQueueTest, TwoThreadStress) {
  constexpr int64_t kItems = 200000;
  SpscQueue<int64_t> queue(RingCapacity<64>{});
  std::thread producer([&queue]() {
    int64_t next = 0;
    while (next < kItems) {
      if (PushOne(queue, next)) {
        ++next;
      } else {
        std::this_thread::yield();
      }
    }
  });
  int64_t expected = 0;
  int64_t sum = 0;
  while (expected < kItems) {
    const std::span<const int64_t> view = queue.PeekContiguous(32);
    if (view.empty()) {
      std::this_thread::yield();
      continue;
    }
    for (const int64_t item : view) {
      ASSERT_EQ(item, expected) << "items must arrive in FIFO order";
      sum += item;
      ++expected;
    }
    queue.Advance(view.size());
  }
  producer.join();
  EXPECT_EQ(sum, kItems * (kItems - 1) / 2);
  EXPECT_EQ(queue.SizeApprox(), 0u);
}

}  // namespace
}  // namespace nmc::common
