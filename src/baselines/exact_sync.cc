#include "baselines/exact_sync.h"

#include "common/check.h"

namespace nmc::baselines {

namespace {
enum MessageType { kValue = 1 };  // site -> coord: a = update value
}  // namespace

class ExactSyncProtocol::Site : public sim::SiteNode {
 public:
  Site(int site_id, sim::Network* network)
      : site_id_(site_id), network_(network) {}

  void OnLocalUpdate(double value) {
    sim::Message m;
    m.type = kValue;
    m.a = value;
    network_->SendToCoordinator(site_id_, m);
  }

  void OnCoordinatorMessage(const sim::Message& /*message*/) override {
    NMC_CHECK(false);  // the coordinator never sends
  }

 private:
  int site_id_;
  sim::Network* network_;
};

class ExactSyncProtocol::Coordinator : public sim::CoordinatorNode {
 public:
  void OnSiteMessage(int /*site_id*/, const sim::Message& message) override {
    NMC_CHECK_EQ(message.type, kValue);
    sum_ += message.a;
  }

  double sum() const { return sum_; }

 private:
  double sum_ = 0.0;
};

ExactSyncProtocol::ExactSyncProtocol(int num_sites,
                                     const sim::ChannelConfig& channel)
    : network_(num_sites) {
  network_.SetChannel(sim::MakeChannel(channel));
  coordinator_ = std::make_unique<Coordinator>();
  network_.AttachCoordinator(coordinator_.get());
  sites_.reserve(static_cast<size_t>(num_sites));
  for (int s = 0; s < num_sites; ++s) {
    sites_.push_back(std::make_unique<Site>(s, &network_));
    network_.AttachSite(s, sites_.back().get());
  }
}

ExactSyncProtocol::~ExactSyncProtocol() = default;

int ExactSyncProtocol::num_sites() const { return network_.num_sites(); }

void ExactSyncProtocol::ProcessUpdate(int site_id, double value) {
  NMC_CHECK_GE(site_id, 0);
  NMC_CHECK_LT(site_id, num_sites());
  network_.BeginTick();
  sites_[static_cast<size_t>(site_id)]->OnLocalUpdate(value);
  network_.DeliverAll();
}

double ExactSyncProtocol::Estimate() const { return coordinator_->sum(); }

const sim::MessageStats& ExactSyncProtocol::stats() const {
  return network_.stats();
}

}  // namespace nmc::baselines
