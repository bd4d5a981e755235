// Channel-model and fault-injection tests: verdict semantics of each
// ChannelModel, the Network's drop/delay/duplicate machinery and its
// simulated clock, and the bit-identity guarantee of an explicitly
// installed PerfectChannel.

#include "sim/channel.h"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/nonmonotonic_counter.h"
#include "sim/message.h"
#include "sim/network.h"
#include "sim/node.h"

namespace nmc::sim {
namespace {

/// Every seed in this file routes through a test-local factory whose
/// construction site takes the seed as a traceable parameter; a
/// statistical flake is then fixed by varying one literal at the call.
common::Rng MakeRng(uint64_t seed) { return common::Rng(seed); }

Hop HopFrom(int site_id, int64_t tick, bool to_coordinator) {
  Hop hop;
  hop.to_coordinator = to_coordinator;
  hop.site_id = site_id;
  hop.tick = tick;
  return hop;
}

TEST(ChannelModelTest, PerfectChannelDeliversEverything) {
  PerfectChannel channel;
  for (int i = 0; i < 32; ++i) {
    const ChannelVerdict verdict =
        channel.Adjudicate(HopFrom(i % 4, i, i % 2 == 0));
    EXPECT_EQ(verdict.action, ChannelVerdict::Action::kDeliver);
  }
}

TEST(ChannelModelTest, BernoulliLossIsDeterministicInSeed) {
  BernoulliLossChannel a(0.5, 0.1, 7);
  BernoulliLossChannel b(0.5, 0.1, 7);
  for (int i = 0; i < 256; ++i) {
    const Hop hop = HopFrom(i % 3, i, false);
    EXPECT_EQ(a.Adjudicate(hop).action, b.Adjudicate(hop).action) << i;
  }
}

TEST(ChannelModelTest, BernoulliLossPartitionsTheUnitInterval) {
  // loss + duplicate = 1: every hop is either dropped or duplicated, never
  // delivered (the single uniform draw falls in one of the two bands).
  BernoulliLossChannel channel(0.5, 0.5, 3);
  int drops = 0;
  int duplicates = 0;
  for (int i = 0; i < 256; ++i) {
    const ChannelVerdict verdict = channel.Adjudicate(HopFrom(0, i, true));
    ASSERT_NE(verdict.action, ChannelVerdict::Action::kDeliver);
    if (verdict.action == ChannelVerdict::Action::kDrop) ++drops;
    if (verdict.action == ChannelVerdict::Action::kDuplicate) ++duplicates;
  }
  EXPECT_GT(drops, 0);
  EXPECT_GT(duplicates, 0);
  EXPECT_EQ(drops + duplicates, 256);
}

TEST(ChannelModelTest, BoundedDelayStaysWithinBound) {
  BoundedDelayChannel channel(1.0, 4, 11);
  bool saw[5] = {false, false, false, false, false};
  for (int i = 0; i < 512; ++i) {
    const ChannelVerdict verdict = channel.Adjudicate(HopFrom(0, i, false));
    ASSERT_EQ(verdict.action, ChannelVerdict::Action::kDelay);
    ASSERT_GE(verdict.delay_ticks, 1);
    ASSERT_LE(verdict.delay_ticks, 4);
    saw[verdict.delay_ticks] = true;
  }
  for (int d = 1; d <= 4; ++d) EXPECT_TRUE(saw[d]) << "delay " << d;
}

TEST(ChannelModelTest, CrashScheduleSilencesBothDirections) {
  CrashScheduleChannel channel({CrashInterval{1, 10, 20}});
  // Site 1 inside [10, 20): both directions dropped.
  EXPECT_EQ(channel.Adjudicate(HopFrom(1, 10, true)).action,
            ChannelVerdict::Action::kDrop);
  EXPECT_EQ(channel.Adjudicate(HopFrom(1, 19, false)).action,
            ChannelVerdict::Action::kDrop);
  // Outside the window, and for other sites, traffic flows.
  EXPECT_EQ(channel.Adjudicate(HopFrom(1, 9, true)).action,
            ChannelVerdict::Action::kDeliver);
  EXPECT_EQ(channel.Adjudicate(HopFrom(1, 20, false)).action,
            ChannelVerdict::Action::kDeliver);
  EXPECT_EQ(channel.Adjudicate(HopFrom(0, 15, true)).action,
            ChannelVerdict::Action::kDeliver);
}

TEST(ChannelModelTest, MakeChannelMapsKindsToModels) {
  ChannelConfig config;
  EXPECT_EQ(MakeChannel(config), nullptr);  // kPerfect: no channel installed
  EXPECT_FALSE(config.faulty());

  config.kind = ChannelConfig::Kind::kLoss;
  EXPECT_NE(MakeChannel(config), nullptr);
  config.kind = ChannelConfig::Kind::kDelay;
  EXPECT_NE(MakeChannel(config), nullptr);
  config.kind = ChannelConfig::Kind::kCrash;
  EXPECT_NE(MakeChannel(config), nullptr);
  EXPECT_TRUE(config.faulty());
}

// ---- Network-level fault machinery --------------------------------------

/// Replays a scripted verdict sequence (then delivers everything after the
/// script runs out) so tests control exactly which hop meets which fate.
class ScriptedChannel : public ChannelModel {
 public:
  explicit ScriptedChannel(std::vector<ChannelVerdict> script)
      : script_(std::move(script)) {}

  ChannelVerdict Adjudicate(const Hop& /*hop*/) override {
    if (next_ >= script_.size()) return ChannelVerdict::Deliver();
    return script_[next_++];
  }

 private:
  std::vector<ChannelVerdict> script_;
  size_t next_ = 0;
};

class SilentSite : public SiteNode {
 public:
  void OnLocalUpdate(double /*value*/) override {}
  void OnCoordinatorMessage(const Message& message) override {
    received_.push_back(message);
  }
  const std::vector<Message>& received() const { return received_; }

 private:
  std::vector<Message> received_;
};

class RecordingCoordinator : public CoordinatorNode {
 public:
  void OnSiteMessage(int site_id, const Message& message) override {
    from_.push_back(site_id);
    received_.push_back(message);
  }
  const std::vector<int>& from() const { return from_; }
  const std::vector<Message>& received() const { return received_; }

 private:
  std::vector<int> from_;
  std::vector<Message> received_;
};

class ChannelNetworkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<Network>(3);
    network_->AttachCoordinator(&coordinator_);
    for (int s = 0; s < 3; ++s) {
      sites_.push_back(std::make_unique<SilentSite>());
      network_->AttachSite(s, sites_.back().get());
    }
  }

  void Install(std::vector<ChannelVerdict> script) {
    network_->SetChannel(std::make_unique<ScriptedChannel>(std::move(script)));
  }

  std::unique_ptr<Network> network_;
  RecordingCoordinator coordinator_;
  std::vector<std::unique_ptr<SilentSite>> sites_;
};

TEST_F(ChannelNetworkTest, DroppedMessageIsChargedButNotDelivered) {
  Install({ChannelVerdict::Drop()});
  Message m;
  m.type = 1;
  network_->SendToCoordinator(0, m);
  network_->DeliverAll();
  EXPECT_EQ(coordinator_.received().size(), 0u);
  // The send is still charged: dropping happens after transmission.
  EXPECT_EQ(network_->stats().site_to_coordinator, 1);
  EXPECT_EQ(network_->stats().dropped, 1);
}

TEST_F(ChannelNetworkTest, DuplicatedMessageArrivesTwiceChargedOnce) {
  Install({ChannelVerdict::Duplicate()});
  Message m;
  m.type = 1;
  m.u = 42;
  network_->SendToCoordinator(2, m);
  network_->DeliverAll();
  ASSERT_EQ(coordinator_.received().size(), 2u);
  EXPECT_EQ(coordinator_.received()[0].u, 42);
  EXPECT_EQ(coordinator_.received()[1].u, 42);
  EXPECT_EQ(network_->stats().site_to_coordinator, 1);
  EXPECT_EQ(network_->stats().duplicated, 1);
}

TEST_F(ChannelNetworkTest, DelayedMessageArrivesAtItsDueTick) {
  Install({ChannelVerdict::Delay(3)});
  Message m;
  m.type = 1;
  network_->SendToCoordinator(0, m);
  network_->DeliverAll();
  EXPECT_EQ(coordinator_.received().size(), 0u);
  EXPECT_EQ(network_->pending_delayed(), 1);
  EXPECT_EQ(network_->stats().delayed, 1);

  network_->BeginTick();  // tick 1
  network_->BeginTick();  // tick 2
  EXPECT_EQ(coordinator_.received().size(), 0u);
  network_->BeginTick();  // tick 3: due
  EXPECT_EQ(coordinator_.received().size(), 1u);
  EXPECT_EQ(network_->pending_delayed(), 0);
}

TEST_F(ChannelNetworkTest, DelayedDeliveryPreservesSendOrder) {
  Install({ChannelVerdict::Delay(2), ChannelVerdict::Delay(1),
           ChannelVerdict::Delay(2)});
  Message m;
  m.type = 1;
  for (int i = 0; i < 3; ++i) {
    m.u = i;
    network_->SendToCoordinator(i, m);
  }
  network_->BeginTick();  // tick 1: second message due
  ASSERT_EQ(coordinator_.received().size(), 1u);
  EXPECT_EQ(coordinator_.received()[0].u, 1);
  network_->BeginTick();  // tick 2: first and third due, in send order
  ASSERT_EQ(coordinator_.received().size(), 3u);
  EXPECT_EQ(coordinator_.received()[1].u, 0);
  EXPECT_EQ(coordinator_.received()[2].u, 2);
}

TEST_F(ChannelNetworkTest, QueuesGrowPastReservationsKeepingSendOrder) {
  // The network reserves 64 delivery and 16 delayed slots. 150 sends cycle
  // Duplicate, Delay(1), Delay(2): the delayed queue grows to 100 entries,
  // and the 100 duplicated hops sit in the delivery queue (grown to 128
  // slots) when the tick-1 flush adds 50 more, so it grows again inside
  // BeginTick.
  constexpr int kSends = 150;
  std::vector<ChannelVerdict> script;
  for (int i = 0; i < kSends; ++i) {
    script.push_back(i % 3 == 0   ? ChannelVerdict::Duplicate()
                     : i % 3 == 1 ? ChannelVerdict::Delay(1)
                                  : ChannelVerdict::Delay(2));
  }
  Install(std::move(script));
  Message m;
  m.type = 1;
  for (int i = 0; i < kSends; ++i) {
    m.u = i;
    network_->SendToCoordinator(i % 3, m);
  }
  EXPECT_EQ(network_->pending_delayed(), 100);
  EXPECT_EQ(network_->stats().site_to_coordinator, kSends);
  EXPECT_EQ(network_->stats().duplicated, 50);
  EXPECT_EQ(network_->stats().delayed, 100);
  EXPECT_EQ(network_->stats().dropped, 0);

  // Tick 1: the queued duplicates in send order, then the Delay(1) hops.
  std::vector<int64_t> expected;
  for (int i = 0; i < kSends; i += 3) {
    expected.push_back(i);
    expected.push_back(i);
  }
  for (int i = 1; i < kSends; i += 3) expected.push_back(i);
  network_->BeginTick();
  EXPECT_EQ(network_->pending_delayed(), 50);
  ASSERT_EQ(coordinator_.received().size(), 150u);

  // Tick 2: the Delay(2) hops, in send order.
  for (int i = 2; i < kSends; i += 3) expected.push_back(i);
  network_->BeginTick();
  EXPECT_EQ(network_->pending_delayed(), 0);
  ASSERT_EQ(coordinator_.received().size(), 200u);
  for (size_t j = 0; j < expected.size(); ++j) {
    EXPECT_EQ(coordinator_.received()[j].u, expected[j]) << j;
    EXPECT_EQ(coordinator_.from()[j], expected[j] % 3) << j;
  }
  EXPECT_EQ(network_->stats().site_to_coordinator, kSends);
}

TEST_F(ChannelNetworkTest, BroadcastAdjudicatedPerRecipient) {
  // Recipient 0 delivered, 1 dropped, 2 delayed.
  Install({ChannelVerdict::Deliver(), ChannelVerdict::Drop(),
           ChannelVerdict::Delay(1)});
  Message m;
  m.type = 2;
  network_->Broadcast(m);
  network_->DeliverAll();
  EXPECT_EQ(sites_[0]->received().size(), 1u);
  EXPECT_EQ(sites_[1]->received().size(), 0u);
  EXPECT_EQ(sites_[2]->received().size(), 0u);
  // A broadcast is still charged k messages whatever each link did.
  EXPECT_EQ(network_->stats().coordinator_to_site, 3);
  EXPECT_EQ(network_->stats().dropped, 1);
  EXPECT_EQ(network_->stats().delayed, 1);
  network_->BeginTick();
  EXPECT_EQ(sites_[2]->received().size(), 1u);
}

TEST_F(ChannelNetworkTest, ClockAdvancesOnlyWhenChanneled) {
  EXPECT_FALSE(network_->channeled());
  network_->BeginTick();
  EXPECT_EQ(network_->now(), 0);  // no channel: BeginTick is a no-op
  Install({});
  EXPECT_TRUE(network_->channeled());
  network_->BeginTick();
  EXPECT_EQ(network_->now(), 1);
}

/// The explicit PerfectChannel object must be observationally identical to
/// running with no channel installed at all: same deliveries, same order,
/// same statistics, no fault counters touched.
TEST(PerfectChannelIdentityTest, InstalledPerfectChannelIsBitIdentical) {
  Network bare(2);
  Network channeled(2);
  RecordingCoordinator bare_coord;
  RecordingCoordinator channeled_coord;
  SilentSite bare_sites[2];
  SilentSite channeled_sites[2];
  bare.AttachCoordinator(&bare_coord);
  channeled.AttachCoordinator(&channeled_coord);
  for (int s = 0; s < 2; ++s) {
    bare.AttachSite(s, &bare_sites[s]);
    channeled.AttachSite(s, &channeled_sites[s]);
  }
  channeled.SetChannel(std::make_unique<PerfectChannel>());

  common::Rng rng = MakeRng(5);
  for (int i = 0; i < 200; ++i) {
    Message m;
    m.type = static_cast<int>(rng.UniformInt(0, 5));
    m.u = i;
    const int site = static_cast<int>(rng.UniformInt(0, 1));
    switch (rng.UniformInt(0, 2)) {
      case 0:
        bare.SendToCoordinator(site, m);
        channeled.SendToCoordinator(site, m);
        break;
      case 1:
        bare.SendToSite(site, m);
        channeled.SendToSite(site, m);
        break;
      default:
        bare.Broadcast(m);
        channeled.Broadcast(m);
        break;
    }
    bare.DeliverAll();
    channeled.BeginTick();
    channeled.DeliverAll();
  }
  ASSERT_EQ(bare_coord.received().size(), channeled_coord.received().size());
  for (size_t i = 0; i < bare_coord.received().size(); ++i) {
    EXPECT_EQ(bare_coord.received()[i].u, channeled_coord.received()[i].u);
    EXPECT_EQ(bare_coord.from()[i], channeled_coord.from()[i]);
  }
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(bare_sites[s].received().size(),
              channeled_sites[s].received().size());
  }
  EXPECT_EQ(bare.stats().site_to_coordinator,
            channeled.stats().site_to_coordinator);
  EXPECT_EQ(bare.stats().coordinator_to_site,
            channeled.stats().coordinator_to_site);
  EXPECT_EQ(channeled.stats().dropped, 0);
  EXPECT_EQ(channeled.stats().delayed, 0);
  EXPECT_EQ(channeled.stats().duplicated, 0);
}

/// Same protocol, same seed, same stream: a faulty run must be exactly
/// reproducible (the acceptance criterion for deterministic fault
/// injection).
TEST(FaultDeterminismTest, LossyCounterRunsAreReproducible) {
  const auto run = [] {
    core::CounterOptions options;
    options.epsilon = 0.2;
    options.horizon_n = 2048;
    options.seed = 17;
    options.channel.kind = ChannelConfig::Kind::kLoss;
    options.channel.loss = 0.05;
    options.channel.seed = 3;
    core::NonMonotonicCounter counter(3, options);
    common::Rng rng = MakeRng(41);
    std::vector<double> estimates;
    for (int i = 0; i < 1500; ++i) {
      counter.ProcessUpdate(i % 3, rng.Bernoulli(0.5) ? 1.0 : -1.0);
      estimates.push_back(counter.Estimate());
    }
    return std::make_pair(std::move(estimates), counter.stats());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second.total(), b.second.total());
  EXPECT_EQ(a.second.dropped, b.second.dropped);
  EXPECT_GT(a.second.dropped, 0);  // the fault model actually engaged
}

}  // namespace
}  // namespace nmc::sim
