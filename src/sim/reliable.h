#pragma once

#include <cstdint>
#include <memory>

#include "sim/protocol.h"

namespace nmc::sim {

/// Recovery bookkeeping (for benches/tests).
struct ReliableDiagnostics {
  /// Silence-timeout events: transitions from clean to loss-detected.
  int64_t loss_events = 0;
  /// Resync() calls issued (first attempts + retries).
  int64_t resyncs = 0;
  /// Retries after a dirty attempt (some resync traffic was lost/delayed).
  int64_t retries = 0;
  /// Recoveries whose resync round went through intact.
  int64_t recoveries = 0;
  /// Loss events abandoned after kMaxRetries dirty attempts.
  int64_t abandoned = 0;
  /// True when the wrapped protocol reported Resync() unsupported.
  bool unsupported = false;
};

/// Coordinator-driven fault recovery around any Protocol: watches the
/// wrapped protocol's fault counters after every update, and when new
/// losses appear, drives Protocol::Resync() with bounded retry and
/// exponential backoff in simulated time until one resync round completes
/// with no further loss — at which point the wrapped coordinator is exact
/// again. The silence-timeout detector is modeled on the stats the
/// simulator already keeps (stats().dropped): a real deployment would
/// detect the same events with sequence numbers or acks, at the same
/// message cost.
///
/// Worst-case recovery latency after a loss event is
/// RecoveryDeadlineTicks() (the sum of the backoff schedule), provided one
/// of the attempts goes through intact; the fault-tolerance tests enforce
/// this bound under Bernoulli loss.
///
/// The wrapper forces per-update supervision: it keeps Protocol's default
/// ProcessBatch, which consumes one update per call through the
/// supervised ProcessUpdate, so every tick is inspected. Never use it on
/// the perfect-channel hot path.
class ReliableProtocol : public Protocol {
 public:
  /// Retry/backoff policy, in simulated time (one tick = one stream
  /// update): the backoff before retry r is min(kBackoffBase << r,
  /// kBackoffCap) ticks (the first attempt after a detected loss is
  /// immediate), and a loss event whose kMaxRetries retries all fail is
  /// abandoned (counted in diagnostics; a later loss event re-arms
  /// recovery).
  static constexpr int64_t kBackoffBase = 1;
  static constexpr int64_t kBackoffCap = 64;
  static constexpr int kMaxRetries = 16;

  explicit ReliableProtocol(std::unique_ptr<Protocol> inner);

  int num_sites() const override;
  void ProcessUpdate(int site_id, double value) override;
  double Estimate() const override;
  const MessageStats& stats() const override;

  const ReliableDiagnostics& diagnostics() const { return diagnostics_; }
  Protocol* inner() { return inner_.get(); }

  /// Upper bound on ticks from loss detection to the last scheduled retry:
  /// sum over retries of min(kBackoffBase << r, kBackoffCap).
  static int64_t RecoveryDeadlineTicks();

 private:
  /// One recovery attempt: Resync(), then check whether its own traffic
  /// survived. Clean -> recovered; dirty -> schedule the next retry.
  void AttemptResync();
  void Supervise();

  /// Dropped + delayed as one staleness signal: a delayed resync reply
  /// also leaves the round incomplete at the end of the attempt.
  int64_t FaultCount() const;

  std::unique_ptr<Protocol> inner_;
  ReliableDiagnostics diagnostics_;
  int64_t tick_ = 0;
  /// Fault count last reconciled (recovery triggers when it grows).
  int64_t observed_faults_ = 0;
  bool recovering_ = false;
  int attempts_ = 0;
  int64_t next_attempt_tick_ = 0;
};

}  // namespace nmc::sim
