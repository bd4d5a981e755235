#include "sim/network.h"

#include <utility>

#include "common/check.h"
#include "sim/channel.h"

namespace nmc::sim {

Network::Network(int num_sites) : num_sites_(num_sites) {
  NMC_CHECK_GE(num_sites, 1);
  sites_.assign(static_cast<size_t>(num_sites), nullptr);
  queue_.reserve(64);
  delayed_.reserve(16);
}

Network::~Network() = default;

void Network::AttachCoordinator(CoordinatorNode* coordinator) {
  NMC_CHECK(coordinator != nullptr);
  coordinator_ = coordinator;
}

void Network::AttachSite(int site_id, SiteNode* site) {
  NMC_CHECK_GE(site_id, 0);
  NMC_CHECK_LT(site_id, num_sites_);
  NMC_CHECK(site != nullptr);
  sites_[static_cast<size_t>(site_id)] = site;
}

void Network::SetChannel(std::unique_ptr<ChannelModel> channel) {
  NMC_CHECK_EQ(stats_.total(), 0);  // install before the first send
  channel_ = std::move(channel);
}

void Network::Route(const Envelope& envelope) {
  const ChannelVerdict verdict = channel_->Adjudicate(
      Hop{envelope.to_coordinator, envelope.site_id, tick_, envelope.message});
  switch (verdict.action) {
    case ChannelVerdict::Action::kDeliver:
      queue_.push_back(envelope);
      break;
    case ChannelVerdict::Action::kDrop:
      stats_.dropped += 1;
      break;
    case ChannelVerdict::Action::kDelay:
      NMC_CHECK_GE(verdict.delay_ticks, 1);
      stats_.delayed += 1;
      delayed_.push_back(DelayedEnvelope{tick_ + verdict.delay_ticks, envelope});
      break;
    case ChannelVerdict::Action::kDuplicate:
      stats_.duplicated += 1;
      queue_.push_back(envelope);
      queue_.push_back(envelope);
      break;
  }
}

void Network::BeginTickSlow() {
  NMC_CHECK(!delivering_);  // ticks advance between updates, not mid-pump
  ++tick_;
  if (!delayed_.empty()) {
    // Flush due envelopes into the delivery queue, keeping both the due
    // batch and the survivors in send order (the vector is append-only
    // between flushes, so one stable pass preserves it).
    size_t kept = 0;
    for (DelayedEnvelope& delayed : delayed_) {
      if (delayed.due <= tick_) {
        queue_.push_back(delayed.envelope);
      } else {
        delayed_[kept++] = delayed;
      }
    }
    delayed_.resize(kept);
    if (head_ < queue_.size()) DeliverAll();
  }
}

void Network::SendToCoordinator(int from_site, const Message& message) {
  NMC_CHECK_GE(from_site, 0);
  NMC_CHECK_LT(from_site, num_sites_);
  NMC_CHECK_GE(message.type, 0);
  stats_.site_to_coordinator += 1;
  if (has_observer_) observer_(SentMessage{true, from_site, message});
  if (channel_ == nullptr) {
    NMC_CHECK(coordinator_ != nullptr);
    coordinator_->OnSiteMessage(from_site, message);
  } else {
    Route(Envelope{true, from_site, message});
  }
}

void Network::SendToSite(int site_id, const Message& message) {
  NMC_CHECK_GE(site_id, 0);
  NMC_CHECK_LT(site_id, num_sites_);
  NMC_CHECK_GE(message.type, 0);
  stats_.coordinator_to_site += 1;
  if (has_observer_) observer_(SentMessage{false, site_id, message});
  if (channel_ == nullptr) {
    SiteNode* site = sites_[static_cast<size_t>(site_id)];
    NMC_CHECK(site != nullptr);
    site->OnCoordinatorMessage(message);
  } else {
    Route(Envelope{false, site_id, message});
  }
}

void Network::Broadcast(const Message& message) {
  NMC_CHECK_GE(message.type, 0);
  stats_.coordinator_to_site += num_sites_;
  stats_.broadcasts += 1;
  if (has_observer_) {
    for (int s = 0; s < num_sites_; ++s) {
      observer_(SentMessage{false, s, message});
    }
  }
  if (channel_ == nullptr) {
    for (SiteNode* site : sites_) {
      NMC_CHECK(site != nullptr);
      site->OnCoordinatorMessage(message);
    }
  } else {
    for (int s = 0; s < num_sites_; ++s) {
      Route(Envelope{false, s, message});
    }
  }
}

void Network::DeliverQueued() {
  delivering_ = true;
  // Handlers may send while we deliver, growing queue_ (and possibly
  // reallocating it), so index — never hold an iterator or a reference —
  // and read the slot into locals before dispatching.
  while (head_ < queue_.size()) {
    const Envelope& slot = queue_[head_];
    const bool to_coordinator = slot.to_coordinator;
    const int site_id = slot.site_id;
    const Message message = slot.message;
    ++head_;
    if (to_coordinator) {
      NMC_CHECK(coordinator_ != nullptr);
      coordinator_->OnSiteMessage(site_id, message);
    } else {
      SiteNode* site = sites_[static_cast<size_t>(site_id)];
      NMC_CHECK(site != nullptr);
      site->OnCoordinatorMessage(message);
    }
  }
  // Quiescent: reset to reuse the storage on the next pump.
  queue_.clear();
  head_ = 0;
  delivering_ = false;
}

}  // namespace nmc::sim
