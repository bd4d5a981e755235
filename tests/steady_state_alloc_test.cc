// Counting-allocator proof of the zero-allocation steady state: after a
// warm-up prefix (message-queue growth, Phase 2 activation),
// pumping updates through the counter must perform NO heap allocations at
// all. This is the runtime check backing the NO_HEAP_IN_HOT_PATH lint rule
// — the lint rule polices the entry points' text, this test counts actual
// operator new calls across everything they transitively touch.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/nonmonotonic_counter.h"
#include "sim/assignment.h"
#include "streams/bernoulli.h"

namespace {
/// Global allocation counter, bumped by the replaced operator new below.
/// Plain (non-atomic) on purpose: the test is single-threaded and the
/// counter must not perturb codegen on the measured path.
int64_t g_allocations = 0;
}  // namespace

// Replace the global allocation functions for this binary. Only the
// unaligned forms are replaced; over-aligned allocations fall through to
// the library's aligned pair (a consistent new/delete pairing either way).
void* operator new(size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace nmc {
namespace {

/// One pumped update, exactly as the harness issues it for a single-site
/// zero-drift run (batching and curve recording change nothing about the
/// allocation profile — they only group calls).
void Pump(core::NonMonotonicCounter* counter, const std::vector<double>& s,
          int64_t t) {
  counter->ProcessUpdate(0, s[static_cast<size_t>(t) % s.size()]);
}

TEST(SteadyStateAllocTest, CounterPumpIsAllocationFreeAfterWarmup) {
  const int64_t n = 1 << 20;  // horizon sized so Phase 2 stays off
  const auto stream = streams::BernoulliStream(1 << 16, 0.0, 21);
  core::CounterOptions options;
  options.epsilon = 0.25;
  options.horizon_n = n;
  options.seed = 11;
  core::NonMonotonicCounter counter(1, options);

  // Warm-up: message queues at peak capacity, sampler feeds primed.
  for (int64_t t = 0; t < (1 << 14); ++t) Pump(&counter, stream, t);

  const int64_t before = g_allocations;
  for (int64_t t = 1 << 14; t < (1 << 14) + 100000; ++t) {
    Pump(&counter, stream, t);
  }
  const int64_t after = g_allocations;
  EXPECT_EQ(after - before, 0)
      << (after - before) << " heap allocations across 100k steady-state "
      << "updates; the hot path must not touch the allocator";
  // The counter still works after being spied on.
  EXPECT_GE(counter.Estimate(), -static_cast<double>(n));
}

TEST(SteadyStateAllocTest, MultiSitePumpIsAllocationFreeAfterWarmup) {
  const int64_t n = 1 << 20;
  const int k = 8;
  const auto stream = streams::BernoulliStream(1 << 16, 0.0, 33);
  core::CounterOptions options;
  options.epsilon = 0.25;
  options.horizon_n = n;
  options.seed = 13;
  core::NonMonotonicCounter counter(k, options);
  sim::RoundRobinAssignment psi(k);

  for (int64_t t = 0; t < (1 << 14); ++t) {
    const double v = stream[static_cast<size_t>(t) % stream.size()];
    counter.ProcessUpdate(psi.NextSite(t, v), v);
  }
  const int64_t before = g_allocations;
  for (int64_t t = 1 << 14; t < (1 << 14) + 100000; ++t) {
    const double v = stream[static_cast<size_t>(t) % stream.size()];
    counter.ProcessUpdate(psi.NextSite(t, v), v);
  }
  EXPECT_EQ(g_allocations - before, 0);
}

}  // namespace
}  // namespace nmc
