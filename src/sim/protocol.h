#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/check.h"
#include "sim/message.h"

namespace nmc::sim {

/// Length of the leading run of equal sites in a non-empty span. A
/// ProcessChunk stops after each message, so the next call scans what is
/// left of the run again. Past its first two items this compares eight at
/// a time with no branch inside a block, which the compiler vectorizes;
/// a rescan then costs about a cycle per eight items, not a branch each.
inline size_t LeadingRunLength(std::span<const int> sites) {
  const int site = sites[0];
  const size_t n = sites.size();
  if (n == 1 || sites[1] != site) return 1;
  size_t run = 2;
  for (; run + 8 <= n; run += 8) {
    unsigned differ = 0;
    for (size_t j = 0; j < 8; ++j) {
      differ |= static_cast<unsigned>(sites[run + j] ^ site);
    }
    if (differ != 0) break;
  }
  while (run < n && sites[run] == site) ++run;
  return run;
}

/// A continuous distributed tracking protocol: the unit the harness drives
/// and the benches compare. Implementations own their Network and node
/// objects internally; all communication they perform is charged to
/// stats().
class Protocol {
 public:
  virtual ~Protocol() = default;

  virtual int num_sites() const = 0;

  /// Feeds one stream update to the given site and runs all communication
  /// it triggers to quiescence.
  virtual void ProcessUpdate(int site_id, double value) = 0;

  /// Feeds a run of consecutive updates all addressed to `site_id`.
  /// Consumes at least one update, stops no later than immediately after
  /// the first update that triggers communication, and returns the count
  /// consumed. The contract the batched harness (directly at k = 1, and
  /// through ProcessChunk's default) and the concurrent coordinators rely
  /// on: for every consumed update except possibly the last, no messages
  /// were sent and Estimate() is unchanged, so the tracking invariant can
  /// be checked against a cached estimate instead of a virtual call per
  /// item.
  /// Equivalence: in any protocol, a ProcessBatch-driven run must be
  /// bit-identical to the same updates fed through ProcessUpdate one at a
  /// time (the default forwards exactly one update, so protocols without
  /// a fast-forward path satisfy this trivially).
  virtual int64_t ProcessBatch(int site_id, std::span<const double> values) {
    NMC_CHECK(!values.empty());
    ProcessUpdate(site_id, values.front());
    return 1;
  }

  /// ProcessBatch's contract extended across sites, and the sim pump's
  /// entry point for k > 1: update i goes to sites[i] (the two spans have
  /// equal, non-zero length). Consumes at least one update, stops no later
  /// than right after the first update that triggers communication, and
  /// returns the count consumed; over the consumed updates except possibly
  /// the last no message was sent and Estimate() is unchanged. A
  /// chunk-driven run must be bit-identical to the same updates fed one at
  /// a time. Every consumed update's site is range-checked (an
  /// out-of-range site aborts).
  ///
  /// The default handles the leading same-site run only: ProcessUpdate
  /// for a run of one, ProcessBatch over a longer run. Protocols whose
  /// silent updates are cheap override it to walk the whole chunk in one
  /// virtual call.
  virtual int64_t ProcessChunk(std::span<const int> sites,
                               std::span<const double> values) {
    NMC_CHECK(!values.empty());
    NMC_CHECK_EQ(sites.size(), values.size());
    const int site = sites[0];
    NMC_CHECK_GE(site, 0);
    NMC_CHECK_LT(site, num_sites());
    const size_t run = LeadingRunLength(sites);
    if (run == 1) {
      ProcessUpdate(site, values[0]);
      return 1;
    }
    return ProcessBatch(site, values.first(run));
  }

  /// The coordinator's current estimate of the tracked sum. Must be valid
  /// after every ProcessUpdate — the tracking guarantee is continuous.
  virtual double Estimate() const = 0;

  /// Coordinator-driven recovery hook for unreliable channels: re-collects
  /// enough state that, if every resync message is delivered, Estimate() is
  /// exact again afterwards. Returns false when the protocol has no such
  /// path (the default) — e.g. a stateless baseline whose lost messages are
  /// unrecoverable. Costs O(k) messages per call; never called by the
  /// perfect-channel harness paths.
  virtual bool Resync() { return false; }

  virtual const MessageStats& stats() const = 0;
};

}  // namespace nmc::sim

