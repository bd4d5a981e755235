#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "sim/message.h"

namespace nmc::sim {

/// What a channel decided to do with one message hop.
struct ChannelVerdict {
  enum class Action {
    kDeliver,    // deliver in order, this tick
    kDrop,       // lose the message
    kDelay,      // deliver at tick + delay_ticks (delay_ticks >= 1)
    kDuplicate,  // deliver two back-to-back copies this tick
  };
  Action action = Action::kDeliver;
  int64_t delay_ticks = 0;

  static ChannelVerdict Deliver() { return {Action::kDeliver, 0}; }
  static ChannelVerdict Drop() { return {Action::kDrop, 0}; }
  static ChannelVerdict Delay(int64_t ticks) { return {Action::kDelay, ticks}; }
  static ChannelVerdict Duplicate() { return {Action::kDuplicate, 0}; }
};

/// One message transmission as presented to a channel model. A broadcast is
/// adjudicated once per recipient (the fault unit is the point-to-point
/// link, so a broadcast can reach some sites and miss others).
struct Hop {
  bool to_coordinator = false;
  /// Source site for site->coordinator hops; destination site otherwise.
  int site_id = 0;
  /// Simulated time of the send: the number of Network::BeginTick() calls
  /// so far, i.e. the index of the stream update being processed.
  int64_t tick = 0;
  Message message;
};

/// Adjudicates each hop of a simulated network. Implementations must be
/// deterministic given their construction parameters: any randomness comes
/// from an explicitly seeded common::Rng consumed in hop order, so a run is
/// reproducible from (protocol seed, channel config) alone.
class ChannelModel {
 public:
  virtual ~ChannelModel() = default;
  virtual ChannelVerdict Adjudicate(const Hop& hop) = 0;
};

/// Drops each hop independently with probability `loss` and (optionally)
/// duplicates each surviving hop with probability `duplicate`. One uniform
/// draw per hop keeps the RNG stream aligned across loss rates.
class BernoulliLossChannel : public ChannelModel {
 public:
  BernoulliLossChannel(double loss, double duplicate, uint64_t seed);
  ChannelVerdict Adjudicate(const Hop& hop) override;

 private:
  double loss_;
  double duplicate_;
  common::Rng rng_;
};

/// Delays each hop with probability `delay_probability` by a uniform number
/// of ticks in [1, max_delay]; otherwise delivers immediately. Models
/// bounded asynchrony: no message is ever lost, but a message sent at
/// update t may arrive while update t + max_delay is being processed.
class BoundedDelayChannel : public ChannelModel {
 public:
  BoundedDelayChannel(double delay_probability, int64_t max_delay,
                      uint64_t seed);
  ChannelVerdict Adjudicate(const Hop& hop) override;

 private:
  double delay_probability_;
  int64_t max_delay_;
  common::Rng rng_;
};

/// One crash: `site` is down for ticks in [start, end).
struct CrashInterval {
  int site_id = 0;
  int64_t start = 0;
  int64_t end = 0;
};

/// Silences crashed sites: while a site is down, every hop it sends and
/// every hop addressed to it is dropped (a broadcast still reaches the live
/// sites). Deterministic by construction — no RNG; the schedule is the
/// config.
class CrashScheduleChannel : public ChannelModel {
 public:
  explicit CrashScheduleChannel(std::vector<CrashInterval> crashes);
  ChannelVerdict Adjudicate(const Hop& hop) override;

 private:
  bool IsDown(int site_id, int64_t tick) const;

  std::vector<CrashInterval> crashes_;
};

/// Value-type description of a channel, so protocol options structs and
/// bench flags can carry "which faults to inject" without owning a model.
struct ChannelConfig {
  enum class Kind {
    kPerfect,  // the default: no channel installed, today's behavior
    kLoss,     // BernoulliLossChannel(loss, duplicate, seed)
    kDelay,    // BoundedDelayChannel(delay_probability, max_delay, seed)
    kCrash,    // CrashScheduleChannel(crashes)
  };
  Kind kind = Kind::kPerfect;
  double loss = 0.0;
  double duplicate = 0.0;
  double delay_probability = 0.0;
  int64_t max_delay = 4;
  std::vector<CrashInterval> crashes;
  uint64_t seed = 1;

  bool faulty() const { return kind != Kind::kPerfect; }
};

/// Materializes the configured model, or nullptr for kPerfect (the Network
/// treats "no channel" as the perfect channel via a single branch, keeping
/// the default hot path untouched).
std::unique_ptr<ChannelModel> MakeChannel(const ChannelConfig& config);

}  // namespace nmc::sim
