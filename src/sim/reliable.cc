#include "sim/reliable.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace nmc::sim {

ReliableProtocol::ReliableProtocol(std::unique_ptr<Protocol> inner)
    : inner_(std::move(inner)) {
  // kMaxRetries < 62 keeps every kBackoffBase << r in range.
  static_assert(kBackoffBase >= 1 && kBackoffCap >= kBackoffBase &&
                kMaxRetries >= 0 && kMaxRetries < 62);
  NMC_CHECK(inner_ != nullptr);
}

int ReliableProtocol::num_sites() const { return inner_->num_sites(); }

double ReliableProtocol::Estimate() const { return inner_->Estimate(); }

const MessageStats& ReliableProtocol::stats() const { return inner_->stats(); }

bool ReliableProtocol::Resync() { return inner_->Resync(); }

int64_t ReliableProtocol::FaultCount() const {
  const MessageStats& stats = inner_->stats();
  return stats.dropped + stats.delayed;
}

int64_t ReliableProtocol::RecoveryDeadlineTicks() {
  int64_t deadline = 0;
  for (int r = 0; r < kMaxRetries; ++r) {
    deadline += std::min(kBackoffBase << r, kBackoffCap);
  }
  return deadline;
}

void ReliableProtocol::ProcessUpdate(int site_id, double value) {
  inner_->ProcessUpdate(site_id, value);
  ++tick_;
  Supervise();
}

void ReliableProtocol::Supervise() {
  const int64_t faults = FaultCount();
  if (!recovering_) {
    if (faults == observed_faults_) return;
    if (diagnostics_.unsupported) {
      // The wrapped protocol cannot resync; just keep the watermark moving
      // so the diagnostics stay meaningful.
      observed_faults_ = faults;
      return;
    }
    ++diagnostics_.loss_events;
    recovering_ = true;
    attempts_ = 0;
    next_attempt_tick_ = tick_;  // first attempt is immediate
  }
  if (tick_ < next_attempt_tick_) return;
  AttemptResync();
}

void ReliableProtocol::AttemptResync() {
  const int64_t before = FaultCount();
  const bool supported = inner_->Resync();
  ++diagnostics_.resyncs;
  // Everything up to and including the attempt is now reconciled; only
  // faults after this watermark can trigger the next loss event.
  observed_faults_ = FaultCount();
  if (!supported) {
    diagnostics_.unsupported = true;
    recovering_ = false;
    return;
  }
  if (observed_faults_ == before) {
    // The resync round went through intact: the coordinator is exact.
    ++diagnostics_.recoveries;
    recovering_ = false;
    return;
  }
  if (attempts_ >= kMaxRetries) {
    ++diagnostics_.abandoned;
    recovering_ = false;
    return;
  }
  const int64_t backoff = std::min(kBackoffBase << attempts_, kBackoffCap);
  ++attempts_;
  ++diagnostics_.retries;
  next_attempt_tick_ = tick_ + backoff;
}

}  // namespace nmc::sim
