#include "sim/network.h"

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "sim/message.h"
#include "sim/node.h"

namespace nmc::sim {
namespace {

// Records everything it receives; can be told to reply.
class RecordingSite : public SiteNode {
 public:
  RecordingSite(int id, Network* network) : id_(id), network_(network) {}

  void OnLocalUpdate(double value) override { updates_.push_back(value); }

  void OnCoordinatorMessage(const Message& message) override {
    received_.push_back(message);
    if (reply_on_receive_) {
      Message reply;
      reply.type = 99;
      reply.u = id_;
      network_->SendToCoordinator(id_, reply);
    }
  }

  void set_reply_on_receive(bool v) { reply_on_receive_ = v; }
  const std::vector<Message>& received() const { return received_; }

 private:
  int id_;
  Network* network_;
  bool reply_on_receive_ = false;
  std::vector<double> updates_;
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

class NetworkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<Network>(3);
    network_->AttachCoordinator(&coordinator_);
    for (int s = 0; s < 3; ++s) {
      sites_.push_back(std::make_unique<RecordingSite>(s, network_.get()));
      network_->AttachSite(s, sites_.back().get());
    }
  }

  std::unique_ptr<Network> network_;
  RecordingCoordinator coordinator_;
  std::vector<std::unique_ptr<RecordingSite>> sites_;
};

TEST_F(NetworkTest, UnicastToCoordinatorCostsOne) {
  Message m;
  m.type = 1;
  m.u = 77;
  network_->SendToCoordinator(2, m);
  network_->DeliverAll();
  EXPECT_EQ(network_->stats().site_to_coordinator, 1);
  EXPECT_EQ(network_->stats().coordinator_to_site, 0);
  ASSERT_EQ(coordinator_.received().size(), 1u);
  EXPECT_EQ(coordinator_.from()[0], 2);
  EXPECT_EQ(coordinator_.received()[0].u, 77);
}

TEST_F(NetworkTest, UnicastToSiteCostsOne) {
  Message m;
  m.type = 2;
  network_->SendToSite(1, m);
  network_->DeliverAll();
  EXPECT_EQ(network_->stats().coordinator_to_site, 1);
  EXPECT_EQ(sites_[1]->received().size(), 1u);
  EXPECT_EQ(sites_[0]->received().size(), 0u);
  EXPECT_EQ(sites_[2]->received().size(), 0u);
}

TEST_F(NetworkTest, BroadcastCostsK) {
  Message m;
  m.type = 3;
  network_->Broadcast(m);
  network_->DeliverAll();
  EXPECT_EQ(network_->stats().coordinator_to_site, 3);
  EXPECT_EQ(network_->stats().broadcasts, 1);
  for (const auto& site : sites_) {
    EXPECT_EQ(site->received().size(), 1u);
  }
  EXPECT_EQ(network_->total_messages(), 3);
}

TEST_F(NetworkTest, ChainedHandlersRunToQuiescence) {
  // Broadcast triggers replies from all 3 sites within one DeliverAll.
  for (auto& site : sites_) site->set_reply_on_receive(true);
  Message m;
  m.type = 4;
  network_->Broadcast(m);
  network_->DeliverAll();
  EXPECT_EQ(coordinator_.received().size(), 3u);
  EXPECT_EQ(network_->stats().site_to_coordinator, 3);
  EXPECT_EQ(network_->total_messages(), 6);
}

TEST_F(NetworkTest, DeliveryIsFifo) {
  Message a;
  a.type = 1;
  a.u = 1;
  Message b;
  b.type = 1;
  b.u = 2;
  network_->SendToCoordinator(0, a);
  network_->SendToCoordinator(1, b);
  network_->DeliverAll();
  ASSERT_EQ(coordinator_.received().size(), 2u);
  EXPECT_EQ(coordinator_.received()[0].u, 1);
  EXPECT_EQ(coordinator_.received()[1].u, 2);
}

TEST_F(NetworkTest, StatsAccumulateAcrossOperations) {
  Message m;
  network_->SendToCoordinator(0, m);
  network_->Broadcast(m);
  network_->SendToSite(0, m);
  network_->DeliverAll();
  EXPECT_EQ(network_->stats().site_to_coordinator, 1);
  EXPECT_EQ(network_->stats().coordinator_to_site, 4);
  EXPECT_EQ(network_->total_messages(), 5);
}

TEST_F(NetworkTest, NestedSendsDuringDeliveryCountedAndDeliveredOnce) {
  // Regression: a handler that sends from *within* delivery (the reply is
  // enqueued while DeliverAll is pumping) must have its message charged
  // and delivered exactly once, and the queue must be fully drained
  // afterwards so a later pump does not redeliver anything.
  sites_[1]->set_reply_on_receive(true);
  Message m;
  m.type = 4;
  network_->SendToSite(1, m);
  network_->DeliverAll();
  ASSERT_EQ(coordinator_.received().size(), 1u);
  EXPECT_EQ(coordinator_.received()[0].type, 99);
  EXPECT_EQ(coordinator_.from()[0], 1);
  EXPECT_EQ(network_->stats().site_to_coordinator, 1);
  EXPECT_EQ(network_->stats().coordinator_to_site, 1);

  // An empty re-pump must be a no-op: nothing redelivered, nothing
  // recharged.
  network_->DeliverAll();
  EXPECT_EQ(coordinator_.received().size(), 1u);
  EXPECT_EQ(sites_[1]->received().size(), 1u);
  EXPECT_EQ(network_->total_messages(), 2);
}

TEST_F(NetworkTest, ReentrantDeliverAllFromHandlerIsIgnored) {
  // A handler calling DeliverAll() re-entrantly must not double-deliver:
  // the outer pump owns the queue.
  class ReentrantCoordinator : public CoordinatorNode {
   public:
    ReentrantCoordinator(Network* network, const RecordingSite* site)
        : network_(network), site_(site) {}
    void OnSiteMessage(int, const Message& message) override {
      ++received_;
      if (message.type == 1) {
        // Send a follow-up, then try to pump from inside delivery; the
        // nested call must return immediately without delivering it.
        Message follow_up;
        follow_up.type = 2;
        network_->SendToSite(0, follow_up);
        network_->DeliverAll();
        EXPECT_TRUE(site_->received().empty());
      }
    }
    int received_ = 0;

   private:
    Network* network_;
    const RecordingSite* site_;
  };

  Network network(1);
  RecordingSite site(0, &network);
  ReentrantCoordinator coordinator(&network, &site);
  network.AttachCoordinator(&coordinator);
  network.AttachSite(0, &site);
  Message m;
  m.type = 1;
  network.SendToCoordinator(0, m);
  network.DeliverAll();
  EXPECT_EQ(coordinator.received_, 1);
  // The follow-up sent mid-delivery arrived exactly once, via the outer
  // pump, not the nested call.
  ASSERT_EQ(site.received().size(), 1u);
  EXPECT_EQ(site.received()[0].type, 2);
  EXPECT_EQ(network.total_messages(), 2);
}

TEST_F(NetworkTest, DeepNestedChainsDrainInFifoOrder) {
  // Each delivered broadcast triggers replies; interleave with fresh sends
  // to exercise queue storage reuse across pumps.
  for (auto& site : sites_) site->set_reply_on_receive(true);
  Message m;
  for (int round = 0; round < 50; ++round) {
    m.type = 4;
    network_->Broadcast(m);
    network_->DeliverAll();
  }
  // Per round: 3 broadcast deliveries + 3 replies.
  EXPECT_EQ(coordinator_.received().size(), 150u);
  EXPECT_EQ(network_->stats().site_to_coordinator, 150);
  EXPECT_EQ(network_->stats().coordinator_to_site, 150);
}

TEST(NetworkGrowthTest, HandlerGrowingTheQueueKeepsItsMessageAndFifoOrder) {
  // A handler that sends enough during its own delivery to make the
  // queue reallocate (it starts at 64 slots) must still see the message it
  // was handed intact, and every delivery after it must keep send order:
  // first what was queued before the handler ran, then its own sends.
  constexpr int kFlood = 300;
  // Delivery order: u for coordinator deliveries, 1000 + u for sites.
  std::vector<int64_t> log;

  class LoggingSite : public SiteNode {
   public:
    explicit LoggingSite(std::vector<int64_t>* log) : log_(log) {}
    void OnLocalUpdate(double) override {}
    void OnCoordinatorMessage(const Message& message) override {
      log_->push_back(1000 + message.u);
    }

   private:
    std::vector<int64_t>* log_;
  };

  class FloodingCoordinator : public CoordinatorNode {
   public:
    FloodingCoordinator(Network* network, std::vector<int64_t>* log)
        : network_(network), log_(log) {}
    void OnSiteMessage(int site_id, const Message& message) override {
      log_->push_back(message.u);
      if (message.u != 1) return;
      Message flood;
      flood.type = 2;
      for (int i = 0; i < kFlood; ++i) {
        flood.u = i;
        network_->SendToSite(i % 3, flood);
      }
      EXPECT_EQ(site_id, 2);
      EXPECT_EQ(message.type, 1);
      EXPECT_EQ(message.u, 1);
      EXPECT_EQ(message.v, -7);
      EXPECT_EQ(message.a, 0.5);
      EXPECT_EQ(message.b, -2.25);
    }

   private:
    Network* network_;
    std::vector<int64_t>* log_;
  };

  Network network(3);
  FloodingCoordinator coordinator(&network, &log);
  std::vector<std::unique_ptr<LoggingSite>> sites;
  network.AttachCoordinator(&coordinator);
  for (int s = 0; s < 3; ++s) {
    sites.push_back(std::make_unique<LoggingSite>(&log));
    network.AttachSite(s, sites.back().get());
  }
  const int64_t high_water_before = network.stats().arena_high_water_bytes;

  Message first;
  first.type = 1;
  first.u = 1;
  first.v = -7;
  first.a = 0.5;
  first.b = -2.25;
  network.SendToCoordinator(2, first);
  Message second;
  second.type = 1;
  second.u = 2;
  network.SendToCoordinator(0, second);
  network.DeliverAll();

  // The queue really grew past its reserved storage.
  EXPECT_GT(network.stats().arena_high_water_bytes, high_water_before);
  std::vector<int64_t> expected = {1, 2};
  for (int i = 0; i < kFlood; ++i) expected.push_back(1000 + i);
  EXPECT_EQ(log, expected);
  EXPECT_EQ(network.total_messages(), 2 + kFlood);
}

TEST(MessageStatsTest, PlusEqualsAggregates) {
  MessageStats a;
  a.site_to_coordinator = 3;
  a.coordinator_to_site = 5;
  a.broadcasts = 1;
  MessageStats b;
  b.site_to_coordinator = 10;
  b.coordinator_to_site = 20;
  b.broadcasts = 2;
  a += b;
  EXPECT_EQ(a.site_to_coordinator, 13);
  EXPECT_EQ(a.coordinator_to_site, 25);
  EXPECT_EQ(a.broadcasts, 3);
  EXPECT_EQ(a.total(), 38);
}

}  // namespace
}  // namespace nmc::sim
