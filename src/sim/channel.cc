#include "sim/channel.h"

#include <utility>

#include "common/check.h"

namespace nmc::sim {

BernoulliLossChannel::BernoulliLossChannel(double loss, double duplicate,
                                           uint64_t seed)
    : loss_(loss), duplicate_(duplicate), rng_(seed) {
  NMC_CHECK_GE(loss, 0.0);
  NMC_CHECK_LT(loss, 1.0);
  NMC_CHECK_GE(duplicate, 0.0);
  NMC_CHECK_LT(duplicate, 1.0);
}

ChannelVerdict BernoulliLossChannel::Adjudicate(const Hop& hop) {
  (void)hop;
  // One draw per hop regardless of outcome: the verdict for hop t never
  // shifts the randomness seen by hop t+1, so sweeping the loss rate with a
  // fixed seed perturbs each hop's fate monotonically instead of reshuffling
  // the whole run.
  const double u = rng_.UniformDouble();
  if (u < loss_) return ChannelVerdict::Drop();
  if (u < loss_ + duplicate_) return ChannelVerdict::Duplicate();
  return ChannelVerdict::Deliver();
}

BoundedDelayChannel::BoundedDelayChannel(double delay_probability,
                                         int64_t max_delay, uint64_t seed)
    : delay_probability_(delay_probability),
      max_delay_(max_delay),
      rng_(seed) {
  NMC_CHECK_GE(delay_probability, 0.0);
  NMC_CHECK_LE(delay_probability, 1.0);
  NMC_CHECK_GE(max_delay, 1);
}

ChannelVerdict BoundedDelayChannel::Adjudicate(const Hop& hop) {
  (void)hop;
  // Two draws when delaying, one otherwise; the extra draw is conditioned
  // only on this hop's own outcome, so runs stay reproducible.
  if (!rng_.Bernoulli(delay_probability_)) return ChannelVerdict::Deliver();
  return ChannelVerdict::Delay(rng_.UniformInt(1, max_delay_));
}

CrashScheduleChannel::CrashScheduleChannel(std::vector<CrashInterval> crashes)
    : crashes_(std::move(crashes)) {
  for (const CrashInterval& crash : crashes_) {
    NMC_CHECK_GE(crash.site_id, 0);
    NMC_CHECK_GE(crash.start, 0);
    NMC_CHECK_LT(crash.start, crash.end);
  }
}

bool CrashScheduleChannel::IsDown(int site_id, int64_t tick) const {
  for (const CrashInterval& crash : crashes_) {
    if (crash.site_id == site_id && tick >= crash.start && tick < crash.end) {
      return true;
    }
  }
  return false;
}

ChannelVerdict CrashScheduleChannel::Adjudicate(const Hop& hop) {
  // The site named on the hop is the source for site->coordinator traffic
  // and the destination otherwise; either way, a crashed site neither sends
  // nor receives.
  if (IsDown(hop.site_id, hop.tick)) return ChannelVerdict::Drop();
  return ChannelVerdict::Deliver();
}

std::unique_ptr<ChannelModel> MakeChannel(const ChannelConfig& config) {
  switch (config.kind) {
    case ChannelConfig::Kind::kPerfect:
      return nullptr;
    case ChannelConfig::Kind::kLoss:
      return std::make_unique<BernoulliLossChannel>(
          config.loss, config.duplicate, config.seed);
    case ChannelConfig::Kind::kDelay:
      return std::make_unique<BoundedDelayChannel>(
          config.delay_probability, config.max_delay, config.seed);
    case ChannelConfig::Kind::kCrash:
      return std::make_unique<CrashScheduleChannel>(config.crashes);
  }
  NMC_CHECK(false);
  return nullptr;
}

}  // namespace nmc::sim
