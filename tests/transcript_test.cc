// Message-transcript tests: the observer tap sees every transmission in
// order, and a fixed-seed counter run produces an exactly reproducible
// transcript — a golden regression guard on the protocol's wire behavior.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/nonmonotonic_counter.h"
#include "streams/bernoulli.h"
#include "sim/network.h"
#include "test_util.h"

namespace nmc {
namespace {

std::string Render(const sim::Network::SentMessage& sent) {
  // type:direction:site — payload values are omitted so the golden string
  // captures the protocol's control flow, not float formatting.
  return std::to_string(sent.message.type) +
         (sent.to_coordinator ? ">C" : ">s") + std::to_string(sent.site_id);
}

/// Nodes that accept and drop everything: on the perfect channel a send
/// runs its receiver's handler, so even a pure observation test needs
/// every destination attached.
class SinkSite : public sim::SiteNode {
 public:
  void OnCoordinatorMessage(const sim::Message&) override {}
};

class SinkCoordinator : public sim::CoordinatorNode {
 public:
  void OnSiteMessage(int, const sim::Message&) override {}
};

/// Attaches a sink to every node of `network`.
struct Sinks {
  explicit Sinks(sim::Network* network)
      : sites(static_cast<size_t>(network->num_sites())) {
    network->AttachCoordinator(&coordinator);
    for (int s = 0; s < network->num_sites(); ++s) {
      network->AttachSite(s, &sites[static_cast<size_t>(s)]);
    }
  }
  SinkCoordinator coordinator;
  std::vector<SinkSite> sites;
};

TEST(TranscriptTest, ObserverSeesEveryTransmissionInOrder) {
  sim::Network network(2);
  Sinks sinks(&network);
  std::vector<std::string> log;
  network.SetObserver([&](const sim::Network::SentMessage& sent) {
    log.push_back(Render(sent));
  });
  sim::Message m;
  m.type = 7;
  network.SendToCoordinator(1, m);
  m.type = 8;
  network.Broadcast(m);
  m.type = 9;
  network.SendToSite(0, m);
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], "7>C1");
  EXPECT_EQ(log[1], "8>s0");
  EXPECT_EQ(log[2], "8>s1");
  EXPECT_EQ(log[3], "9>s0");
  // Observation does not perturb accounting.
  EXPECT_EQ(network.stats().total(), 4);
}

TEST(TranscriptTest, RemovingObserverStopsObservation) {
  sim::Network network(1);
  Sinks sinks(&network);
  int seen = 0;
  network.SetObserver([&](const sim::Network::SentMessage&) { ++seen; });
  sim::Message m;
  network.SendToCoordinator(0, m);
  network.SetObserver(nullptr);
  network.SendToCoordinator(0, m);
  EXPECT_EQ(seen, 1);
}

// Golden transcript: a tiny fixed-seed run of the counter. Protocol
// message types (see nonmonotonic_counter.cc): 4 = kState,
// 5 = kStraightReport. With k = 2 and a near-zero count the counter
// stays in StraightSync: each update is a report followed by a unicast
// state ack to the reporter.
TEST(TranscriptTest, GoldenStraightSyncTranscript) {
  core::NonMonotonicCounter counter(
      2, nmc::testing::DefaultOptions(/*n=*/8, /*epsilon=*/0.1, /*seed=*/1));
  std::vector<std::string> log;
  counter.SetMessageObserver([&](const sim::Network::SentMessage& sent) {
    log.push_back(Render(sent));
  });
  counter.ProcessUpdate(0, 1.0);
  counter.ProcessUpdate(1, -1.0);
  counter.ProcessUpdate(1, 1.0);
  const std::vector<std::string> golden{
      "5>C0", "4>s0",  // update at site 0: report + ack
      "5>C1", "4>s1",  // update at site 1: report + ack
      "5>C1", "4>s1",
  };
  EXPECT_EQ(log, golden);
}

// The transcript of a randomized run is a pure function of the seed.
TEST(TranscriptTest, TranscriptDeterministicInSeed) {
  auto run = [](uint64_t seed) {
    const auto stream = streams::BernoulliStream(2000, 0.8, 42);
    core::NonMonotonicCounter counter(
        3, nmc::testing::DefaultOptions(2000, 0.2, seed));
    std::vector<std::string> log;
    counter.SetMessageObserver([&](const sim::Network::SentMessage& sent) {
      log.push_back(Render(sent));
    });
    for (int64_t t = 0; t < 2000; ++t) {
      counter.ProcessUpdate(static_cast<int>(t % 3),
                            stream[static_cast<size_t>(t)]);
    }
    return log;
  };
  const auto a = run(5);
  const auto b = run(5);
  const auto c = run(6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // different coins, different sync times
}

}  // namespace
}  // namespace nmc
