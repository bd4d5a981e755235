#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/message.h"
#include "sim/node.h"

namespace nmc::sim {

// Defined in sim/channel.h; only a pointer is held here, so the heavy
// header (which pulls in the RNG) stays out of every protocol's include
// chain.
class ChannelModel;

/// The star network connecting k sites to one coordinator. It is the only
/// channel protocols may use, and it charges every transmission to
/// MessageStats: one unit per unicast, k units per broadcast.
///
/// Delivery is synchronous-in-order: sends enqueue, and DeliverAll() pumps
/// the queue to quiescence. This models the paper's setting, where message
/// exchange triggered by one update completes before the adversary injects
/// the next update (communication is only initiated by a site receiving an
/// update, and arrival times are under adversary control).
///
/// A pluggable ChannelModel relaxes that model: when one is installed (see
/// SetChannel), every hop is adjudicated at send time and may be dropped,
/// delayed by d simulated ticks, or duplicated. Simulated time advances via
/// BeginTick(), called by protocols once per stream update; messages
/// delayed to tick t are delivered at the start of tick t, before the
/// update is processed, in their original send order. With no channel (the
/// default) the fault machinery costs one branch per send and the behavior
/// is bit-identical to the historical perfectly-reliable network.
///
/// The Network does not own the nodes; protocols own their nodes and attach
/// them before use.
///
/// Per-message work is allocation-free in the steady state: the delivery
/// queue and the delayed-delivery queue are std::vectors reserved at
/// construction whose capacity never shrinks, so once they reach their
/// peak no send or delivery touches the heap. The observer hook costs one
/// branch on a plain bool when none is installed.
class Network {
 public:
  explicit Network(int num_sites);
  ~Network();  // out-of-line: ChannelModel is incomplete here

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  int num_sites() const { return num_sites_; }

  void AttachCoordinator(CoordinatorNode* coordinator);
  void AttachSite(int site_id, SiteNode* site);

  /// Installs the channel model adjudicating every subsequent hop; nullptr
  /// (the default) is the perfect channel. Install before the first send —
  /// swapping models mid-run is not supported (delayed messages in flight
  /// would straddle two fault regimes).
  void SetChannel(std::unique_ptr<ChannelModel> channel);

  /// True when a channel model is installed. Protocols use this to pick the
  /// per-update processing path under faults (batch fast-forwarding assumes
  /// silent prefixes stay silent, which delayed delivery breaks).
  bool channeled() const { return channel_ != nullptr; }

  /// Current simulated time: the number of BeginTick() calls so far.
  int64_t now() const { return tick_; }

  /// Advances simulated time by one stream update and delivers any delayed
  /// messages that have come due (in send order). No-op without a channel.
  void BeginTick() {
    if (channel_ != nullptr) BeginTickSlow();
  }

  /// Messages currently held in the delayed queue.
  int64_t pending_delayed() const {
    return static_cast<int64_t>(delayed_.size());
  }

  /// Site -> coordinator unicast (1 message).
  void SendToCoordinator(int from_site, const Message& message);

  /// Coordinator -> site unicast (1 message).
  void SendToSite(int site_id, const Message& message);

  /// Coordinator -> all sites (k messages). Under a channel model each
  /// recipient's copy is adjudicated independently (the fault unit is the
  /// point-to-point link), so a broadcast can partially fail.
  void Broadcast(const Message& message);

  /// Delivers queued messages (and any messages their handlers send) until
  /// the network is quiescent. Called by the harness after each update.
  /// The empty-queue test lives here so the (dominant) silent-pump case
  /// costs one load instead of an out-of-line call: outside a delivery
  /// head_ is always 0, so an empty queue means the body is a no-op.
  void DeliverAll() {
    if (delivering_ || queue_.empty()) return;
    DeliverQueued();
  }

  const MessageStats& stats() const {
    stats_.arena_high_water_bytes = static_cast<int64_t>(
        queue_.capacity() * sizeof(Envelope) +
        delayed_.capacity() * sizeof(DelayedEnvelope));
    return stats_;
  }

  /// Total messages transmitted so far.
  int64_t total_messages() const { return stats_.total(); }

  /// One transmitted message, as seen by the observer below.
  struct SentMessage {
    bool to_coordinator = false;
    /// Source site for site->coordinator; destination site otherwise
    /// (a broadcast reports one entry per recipient).
    int site_id = 0;
    Message message;
  };

  /// Installs a tap that sees every transmission at send time (before
  /// channel adjudication), in order. For tracing, golden-transcript tests,
  /// and debugging; pass nullptr to remove. Observation does not affect
  /// accounting or delivery.
  void SetObserver(std::function<void(const SentMessage&)> observer) {
    observer_ = std::move(observer);
    has_observer_ = static_cast<bool>(observer_);
  }

 private:
  struct Envelope {
    bool to_coordinator = false;
    int site_id = 0;  // destination site, or source site when to_coordinator
    Message message;
  };

  struct DelayedEnvelope {
    int64_t due = 0;  // tick at whose start the envelope is delivered
    Envelope envelope;
  };

  /// Queues one hop. On the perfect channel the envelope is constructed in
  /// its queue slot: building it on the stack and copying it in stalls
  /// store forwarding on every send. Under a channel the hop goes to Route.
  void Enqueue(bool to_coordinator, int site_id, const Message& message);

  /// Channel adjudication path for one hop (only reached when a channel is
  /// installed).
  void Route(const Envelope& envelope);

  void BeginTickSlow();

  /// Out-of-line body of DeliverAll for a non-empty queue.
  void DeliverQueued();

  int num_sites_;
  CoordinatorNode* coordinator_ = nullptr;
  std::vector<SiteNode*> sites_;
  /// FIFO queue as (vector, head index): emplace_back to enqueue, advance
  /// head_ to dequeue; cleared at quiescence, keeping its capacity, so the
  /// steady state never reallocates.
  std::vector<Envelope> queue_;
  size_t head_ = 0;
  /// Messages a channel delayed, in send order; flushed (stably, in place)
  /// into queue_ as their due ticks arrive.
  std::vector<DelayedEnvelope> delayed_;
  std::unique_ptr<ChannelModel> channel_;
  int64_t tick_ = 0;
  /// mutable: stats() stamps the queue footprint on read.
  mutable MessageStats stats_;
  std::function<void(const SentMessage&)> observer_;
  bool has_observer_ = false;
  bool delivering_ = false;
};

}  // namespace nmc::sim
