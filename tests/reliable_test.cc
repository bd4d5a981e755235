// ReliableProtocol tests: the coordinator-driven resync wrapper must
// detect every loss event, restore an exact coordinator estimate within
// its backoff deadline (the E14 acceptance bound), survive crash windows,
// and degrade gracefully around protocols that cannot resync.

#include "sim/reliable.h"

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/exact_sync.h"
#include "common/rng.h"
#include "core/nonmonotonic_counter.h"
#include "hyz/hyz_counter.h"
#include "sim/channel.h"

namespace nmc::sim {
namespace {

std::unique_ptr<core::NonMonotonicCounter> MakeCounter(
    int num_sites, const ChannelConfig& channel, uint64_t seed) {
  core::CounterOptions options;
  options.epsilon = 0.2;
  options.horizon_n = 4096;
  options.seed = seed;
  options.channel = channel;
  return std::make_unique<core::NonMonotonicCounter>(num_sites, options);
}

ChannelConfig LossChannel(double loss, uint64_t seed) {
  ChannelConfig config;
  config.kind = ChannelConfig::Kind::kLoss;
  config.loss = loss;
  config.seed = seed;
  return config;
}

TEST(ReliableProtocolTest, DeadlineIsTheSumOfTheBackoffSchedule) {
  // 16 retries: backoffs 1, 2, 4, 8, 16, 32, 64, then 9 more capped at 64.
  EXPECT_EQ(ReliableProtocol::RecoveryDeadlineTicks(),
            1 + 2 + 4 + 8 + 16 + 32 + 64 + 9 * 64);
}

TEST(ReliableProtocolTest, ProcessBatchConsumesOneUpdatePerCall) {
  ReliableProtocol protocol(MakeCounter(2, LossChannel(0.1, 5), 1));
  const std::vector<double> values{1.0, -1.0, 1.0, 1.0};
  EXPECT_EQ(protocol.ProcessBatch(0, values), 1);
  EXPECT_EQ(protocol.num_sites(), 2);
}

TEST(ReliableProtocolTest, PerfectChannelNeverTriggersRecovery) {
  ReliableProtocol protocol(MakeCounter(3, ChannelConfig{}, 7));
  common::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    protocol.ProcessUpdate(i % 3, rng.Sign(0.5));
  }
  EXPECT_EQ(protocol.diagnostics().loss_events, 0);
  EXPECT_EQ(protocol.diagnostics().resyncs, 0);
  EXPECT_EQ(protocol.stats().dropped, 0);
}

/// The headline acceptance bound: under Bernoulli loss at 10%, every loss
/// event must be resolved (recovered, in practice) within
/// RecoveryDeadlineTicks, and each recovery must leave the coordinator's
/// estimate exactly equal to the true running sum.
TEST(ReliableProtocolTest, CounterRecoversExactlyWithinDeadlineUnderLoss) {
  ReliableProtocol protocol(MakeCounter(4, LossChannel(0.1, 11), 13));
  const int64_t deadline = protocol.RecoveryDeadlineTicks();
  common::Rng rng(99);
  int64_t true_sum = 0;
  int64_t pending_since = -1;
  int64_t seen_recoveries = 0;
  for (int i = 0; i < 4000; ++i) {
    const int value = rng.Sign(0.5);
    true_sum += value;
    protocol.ProcessUpdate(i % 4, static_cast<double>(value));
    const ReliableDiagnostics& d = protocol.diagnostics();
    ASSERT_FALSE(d.unsupported);
    if (d.recoveries > seen_recoveries) {
      seen_recoveries = d.recoveries;
      // A clean resync round just completed: the coordinator is exact.
      EXPECT_EQ(protocol.Estimate(), static_cast<double>(true_sum))
          << "after recovery at update " << i;
    }
    if (d.loss_events > d.recoveries + d.abandoned) {
      // A loss event is in flight; it must resolve within the deadline.
      if (pending_since < 0) pending_since = i;
      ASSERT_LE(i - pending_since, deadline) << "recovery overdue at " << i;
    } else {
      pending_since = -1;
    }
  }
  const ReliableDiagnostics& d = protocol.diagnostics();
  EXPECT_GT(d.loss_events, 0) << "the loss model never engaged";
  EXPECT_GT(d.recoveries, 0);
  // Abandonment (all 17 attempts dirty) is the documented escape hatch,
  // not the norm: the overwhelming majority of events must recover.
  EXPECT_LE(d.abandoned, d.loss_events / 10);
}

/// Same bound for the HYZ monotonic counter: collect replies carry
/// lifetime totals, so a clean resync restores the exact count no matter
/// what was lost before.
TEST(ReliableProtocolTest, HyzRecoversExactlyUnderLoss) {
  hyz::HyzOptions options;
  options.epsilon = 0.2;
  options.delta = 1e-4;
  options.seed = 5;
  options.channel = LossChannel(0.1, 29);
  ReliableProtocol protocol(std::make_unique<hyz::HyzProtocol>(3, options));
  int64_t total = 0;
  int64_t seen_recoveries = 0;
  for (int i = 0; i < 3000; ++i) {
    ++total;
    protocol.ProcessUpdate(i % 3, 1.0);
    const ReliableDiagnostics& d = protocol.diagnostics();
    ASSERT_FALSE(d.unsupported);
    if (d.recoveries > seen_recoveries) {
      seen_recoveries = d.recoveries;
      EXPECT_EQ(protocol.Estimate(), static_cast<double>(total))
          << "after recovery at update " << i;
    }
  }
  EXPECT_GT(protocol.diagnostics().loss_events, 0);
  EXPECT_GT(protocol.diagnostics().recoveries, 0);
}

/// A crashed site silences a window of traffic; once it comes back, the
/// wrapper's retries land a clean collect round and the coordinator is
/// exact again (the crashed site kept counting locally).
TEST(ReliableProtocolTest, RecoversAfterCrashWindow) {
  ChannelConfig config;
  config.kind = ChannelConfig::Kind::kCrash;
  config.crashes = {CrashInterval{0, 100, 200}};
  ReliableProtocol protocol(MakeCounter(3, config, 23));
  // The schedule sums to 703 ticks >> the 100-tick crash window, so
  // retries are still pending when the site returns.
  ASSERT_GT(protocol.RecoveryDeadlineTicks(), 200);
  common::Rng rng(7);
  int64_t true_sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const int value = rng.Sign(0.5);
    true_sum += value;
    protocol.ProcessUpdate(i % 3, static_cast<double>(value));
  }
  const ReliableDiagnostics& d = protocol.diagnostics();
  EXPECT_GT(d.loss_events, 0);
  EXPECT_GT(d.recoveries, 0);
  EXPECT_EQ(d.abandoned, 0);
  // Long after the crash window, one more clean resync of the wrapped
  // counter pins the estimate to the exact sum (including everything site 0
  // counted while severed).
  EXPECT_TRUE(protocol.inner()->Resync());
  EXPECT_EQ(protocol.Estimate(), static_cast<double>(true_sum));
}

/// Wrapping a protocol without resync support must not spin: one attempt,
/// the unsupported flag latches, and later losses stop triggering events.
TEST(ReliableProtocolTest, UnsupportedInnerLatchesAfterOneAttempt) {
  auto inner =
      std::make_unique<baselines::ExactSyncProtocol>(2, LossChannel(0.2, 31));
  ReliableProtocol protocol(std::move(inner));
  common::Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    protocol.ProcessUpdate(i % 2, rng.Sign(0.5));
  }
  const ReliableDiagnostics& d = protocol.diagnostics();
  EXPECT_TRUE(d.unsupported);
  EXPECT_EQ(d.loss_events, 1);
  EXPECT_EQ(d.resyncs, 1);
  EXPECT_EQ(d.recoveries, 0);
  EXPECT_GT(protocol.stats().dropped, 1);  // losses kept happening quietly
}

}  // namespace
}  // namespace nmc::sim
