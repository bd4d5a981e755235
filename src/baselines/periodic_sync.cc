#include "baselines/periodic_sync.h"

#include "common/check.h"

namespace nmc::baselines {

namespace {
enum MessageType {
  kTotals = 1,  // site -> coord: u = #updates, a = sum
  kProbe = 2,   // coord -> sites (broadcast): push totals now (resync)
};
}  // namespace

class PeriodicSyncProtocol::Site : public sim::SiteNode {
 public:
  Site(int site_id, int64_t period, sim::Network* network)
      : site_id_(site_id), period_(period), network_(network) {}

  void OnLocalUpdate(double value) {
    ++local_updates_;
    local_sum_ += value;
    if (local_updates_ % period_ == 0) PushTotals();
  }

  void OnCoordinatorMessage(const sim::Message& message) override {
    NMC_CHECK_EQ(message.type, kProbe);
    PushTotals();
  }

 private:
  void PushTotals() {
    sim::Message m;
    m.type = kTotals;
    m.u = local_updates_;
    m.a = local_sum_;
    network_->SendToCoordinator(site_id_, m);
  }

  int site_id_;
  int64_t period_;
  sim::Network* network_;
  int64_t local_updates_ = 0;
  double local_sum_ = 0.0;
};

class PeriodicSyncProtocol::Coordinator : public sim::CoordinatorNode {
 public:
  Coordinator(sim::Network* network, int num_sites)
      : network_(network),
        known_updates_(static_cast<size_t>(num_sites), 0),
        known_sum_(static_cast<size_t>(num_sites), 0.0) {}

  void OnSiteMessage(int site_id, const sim::Message& message) override {
    NMC_CHECK_EQ(message.type, kTotals);
    const size_t i = static_cast<size_t>(site_id);
    // Pushes carry cumulative totals; a stale (delayed-past-newer) push
    // must not regress the per-site state. No-op on a perfect channel:
    // in-order pushes have nondecreasing u.
    if (message.u < known_updates_[i]) return;
    known_updates_[i] = message.u;
    total_ += message.a - known_sum_[i];
    known_sum_[i] = message.a;
  }

  /// Resync: ask every site for fresh totals (k + k messages).
  void Probe() {
    sim::Message m;
    m.type = kProbe;
    network_->Broadcast(m);
  }

  double total() const { return total_; }

 private:
  sim::Network* network_;
  std::vector<int64_t> known_updates_;
  std::vector<double> known_sum_;
  double total_ = 0.0;
};

PeriodicSyncProtocol::PeriodicSyncProtocol(int num_sites, int64_t period,
                                           const sim::ChannelConfig& channel)
    : network_(num_sites) {
  NMC_CHECK_GE(period, 1);
  network_.SetChannel(sim::MakeChannel(channel));
  coordinator_ = std::make_unique<Coordinator>(&network_, num_sites);
  network_.AttachCoordinator(coordinator_.get());
  sites_.reserve(static_cast<size_t>(num_sites));
  for (int s = 0; s < num_sites; ++s) {
    sites_.push_back(std::make_unique<Site>(s, period, &network_));
    network_.AttachSite(s, sites_.back().get());
  }
}

PeriodicSyncProtocol::~PeriodicSyncProtocol() = default;

int PeriodicSyncProtocol::num_sites() const { return network_.num_sites(); }

void PeriodicSyncProtocol::ProcessUpdate(int site_id, double value) {
  NMC_CHECK_GE(site_id, 0);
  NMC_CHECK_LT(site_id, num_sites());
  network_.BeginTick();
  sites_[static_cast<size_t>(site_id)]->OnLocalUpdate(value);
  network_.DeliverAll();
}

double PeriodicSyncProtocol::Estimate() const { return coordinator_->total(); }

const sim::MessageStats& PeriodicSyncProtocol::stats() const {
  return network_.stats();
}

bool PeriodicSyncProtocol::Resync() {
  coordinator_->Probe();
  network_.DeliverAll();
  return true;
}

}  // namespace nmc::baselines
