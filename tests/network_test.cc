#include "sim/network.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/channel.h"
#include "sim/message.h"
#include "sim/node.h"

namespace nmc::sim {
namespace {

/// A zero-loss, zero-duplicate Bernoulli channel: the channel machinery is
/// installed, so hops go through the FIFO queue, but every verdict is
/// kDeliver.
std::unique_ptr<ChannelModel> ZeroLossChannel() {
  ChannelConfig config;
  config.kind = ChannelConfig::Kind::kLoss;
  config.loss = 0.0;
  config.duplicate = 0.0;
  return MakeChannel(config);
}

// Records everything it receives; can be told to reply.
class RecordingSite : public SiteNode {
 public:
  RecordingSite(int id, Network* network) : id_(id), network_(network) {}

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

/// Three recording sites and a recording coordinator on the perfect
/// channel (send-time delivery).
class NetworkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<Network>(3);
    if (channeled()) network_->SetChannel(ZeroLossChannel());
    network_->AttachCoordinator(&coordinator_);
    for (int s = 0; s < 3; ++s) {
      sites_.push_back(std::make_unique<RecordingSite>(s, network_.get()));
      network_->AttachSite(s, sites_.back().get());
    }
  }

  virtual bool channeled() const { return false; }

  std::unique_ptr<Network> network_;
  RecordingCoordinator coordinator_;
  std::vector<std::unique_ptr<RecordingSite>> sites_;
};

/// The same nodes behind a zero-loss channel: hops are queued and
/// DeliverAll() pumps them in FIFO order.
class QueuedNetworkTest : public NetworkTest {
 protected:
  bool channeled() const override { return true; }
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

TEST_F(QueuedNetworkTest, DeliveryIsFifo) {
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

TEST_F(QueuedNetworkTest, NestedSendsDuringDeliveryCountedAndDeliveredOnce) {
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

TEST_F(QueuedNetworkTest, ReentrantDeliverAllFromHandlerIsIgnored) {
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
  network.SetChannel(ZeroLossChannel());
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

TEST_F(QueuedNetworkTest, DeepNestedChainsDrainInFifoOrder) {
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

TEST_F(NetworkTest, HandlerRunsInsideTheSend) {
  // On the perfect channel the receiver's handler has run when the send
  // returns; DeliverAll() has nothing left to do.
  Message m;
  m.type = 1;
  m.u = 5;
  network_->SendToCoordinator(1, m);
  ASSERT_EQ(coordinator_.received().size(), 1u);
  EXPECT_EQ(coordinator_.received()[0].u, 5);
  network_->SendToSite(2, m);
  EXPECT_EQ(sites_[2]->received().size(), 1u);
  network_->Broadcast(m);
  for (const auto& site : sites_) EXPECT_FALSE(site->received().empty());
  network_->DeliverAll();
  EXPECT_EQ(coordinator_.received().size(), 1u);
  EXPECT_EQ(network_->total_messages(), 5);
}

/// Logs every handler run and every observed send into one sequence, so a
/// test can check how delivery interleaves with sending.
struct EventLog {
  std::vector<std::string> events;
};

class LoggingReplySite : public SiteNode {
 public:
  LoggingReplySite(int id, Network* network, EventLog* log)
      : id_(id), network_(network), log_(log) {}
  void OnCoordinatorMessage(const Message& message) override {
    log_->events.push_back("s" + std::to_string(id_) + " got " +
                           std::to_string(message.type));
    if (message.type != 4) return;
    Message reply;
    reply.type = 9;
    network_->SendToCoordinator(id_, reply);
  }

 private:
  int id_;
  Network* network_;
  EventLog* log_;
};

class LoggingCoordinator : public CoordinatorNode {
 public:
  explicit LoggingCoordinator(EventLog* log) : log_(log) {}
  void OnSiteMessage(int site_id, const Message& message) override {
    log_->events.push_back("C got " + std::to_string(message.type) + " from s" +
                           std::to_string(site_id));
  }

 private:
  EventLog* log_;
};

std::vector<std::string> BroadcastWithReplies(bool channeled) {
  EventLog log;
  Network network(3);
  if (channeled) network.SetChannel(ZeroLossChannel());
  LoggingCoordinator coordinator(&log);
  network.AttachCoordinator(&coordinator);
  std::vector<std::unique_ptr<LoggingReplySite>> sites;
  for (int s = 0; s < 3; ++s) {
    sites.push_back(std::make_unique<LoggingReplySite>(s, &network, &log));
    network.AttachSite(s, sites.back().get());
  }
  network.SetObserver([&](const Network::SentMessage& sent) {
    log.events.push_back("send " + std::to_string(sent.message.type) +
                         (sent.to_coordinator ? " >C" : " >s") +
                         std::to_string(sent.site_id));
  });
  Message m;
  m.type = 4;
  network.Broadcast(m);
  network.DeliverAll();
  return log.events;
}

TEST(NetworkDeliveryTest, NestedSendsRunDepthFirst) {
  // The observer sees all k broadcast copies first; then each site's
  // handler runs in site order, and the reply it sends is delivered before
  // the next site gets the broadcast.
  const std::vector<std::string> want = {
      "send 4 >s0", "send 4 >s1",      "send 4 >s2",
      "s0 got 4",   "send 9 >C0",      "C got 9 from s0",
      "s1 got 4",   "send 9 >C1",      "C got 9 from s1",
      "s2 got 4",   "send 9 >C2",      "C got 9 from s2"};
  EXPECT_EQ(BroadcastWithReplies(/*channeled=*/false), want);
}

TEST(NetworkDeliveryTest, QueuedDeliveryIsBreadthFirst) {
  // Behind a channel the same exchange is FIFO: every broadcast copy is
  // delivered before any reply. The observer still sees sends in send
  // order, which here matches the depth-first transcript hop for hop.
  const std::vector<std::string> want = {
      "send 4 >s0",      "send 4 >s1",      "send 4 >s2",
      "s0 got 4",        "send 9 >C0",      "s1 got 4",
      "send 9 >C1",      "s2 got 4",        "send 9 >C2",
      "C got 9 from s0", "C got 9 from s1", "C got 9 from s2"};
  EXPECT_EQ(BroadcastWithReplies(/*channeled=*/true), want);
}

TEST(NetworkDeliveryDeathTest, SendToUnattachedNodeAborts) {
  // Send-time delivery keeps the queue's check that the destination is
  // attached.
  Network network(2);
  Message m;
  m.type = 1;
  EXPECT_DEATH(network.SendToCoordinator(0, m), "");
  EXPECT_DEATH(network.SendToSite(1, m), "");
  EXPECT_DEATH(network.Broadcast(m), "");
}

TEST(NetworkGrowthTest, HandlerGrowingTheQueueKeepsItsMessageAndFifoOrder) {
  // Behind a channel, a handler that sends enough during its own delivery
  // to make the queue reallocate (it starts at 64 slots) must still see
  // the message it was handed intact, and every delivery after it must
  // keep send order: first what was queued before the handler ran, then
  // its own sends.
  constexpr int kFlood = 300;
  // Delivery order: u for coordinator deliveries, 1000 + u for sites.
  std::vector<int64_t> log;

  class LoggingSite : public SiteNode {
   public:
    explicit LoggingSite(std::vector<int64_t>* log) : log_(log) {}
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
  network.SetChannel(ZeroLossChannel());
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
