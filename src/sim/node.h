#pragma once

#include "sim/message.h"

namespace nmc::sim {

/// The send-last contract. On the perfect channel the Network runs the
/// receiver's handler inside the send (see sim/network.h), so by the time
/// a send returns, the whole exchange it triggered may have happened —
/// including messages back to the sender. Every handler, and every
/// protocol entry point that sends, must therefore finish its own state
/// changes before it sends, and must not act on state it read before the
/// send once the send returns. Under that contract depth-first delivery
/// and the FIFO queue a channel uses produce the same results.
///
/// A site in the star topology. Sites never talk to each other directly
/// (the model forbids it); their only I/O is updates arriving locally and
/// messages to/from the coordinator, so a correct implementation cannot
/// accidentally read global state. Local updates reach a site through its
/// owning protocol's ProcessUpdate/ProcessChunk, which calls the site
/// directly; the Network delivers only coordinator messages, and any
/// communication an update triggers goes through it.
class SiteNode {
 public:
  virtual ~SiteNode() = default;

  /// A message (unicast or broadcast) arrived from the coordinator.
  virtual void OnCoordinatorMessage(const Message& message) = 0;
};

/// The coordinator. It must be able to produce its current estimate at any
/// moment — the continuous-tracking guarantee is checked after every single
/// update by the harness.
class CoordinatorNode {
 public:
  virtual ~CoordinatorNode() = default;

  /// A message arrived from site `site_id`.
  virtual void OnSiteMessage(int site_id, const Message& message) = 0;
};

}  // namespace nmc::sim

