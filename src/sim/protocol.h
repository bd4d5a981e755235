#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/check.h"
#include "sim/message.h"
#include "sim/site_run.h"

namespace nmc::sim {

/// Where a Protocol::ProcessChunk call stopped in the runs it was handed:
/// it consumed `consumed` updates, namely runs[0, run) whole and the first
/// `offset` updates of runs[run] (0 <= offset < runs[run].length; run ==
/// runs.size() with offset 0 when it consumed them all). The pump resumes
/// from here without walking the runs again. A chunk holds fewer than 2^31
/// updates (TrackingOptions::batch_size is an int), so `run` and `offset`
/// fit 32 bits, and the struct comes back in two registers.
struct ChunkStop {
  int64_t consumed = 0;
  uint32_t run = 0;
  uint32_t offset = 0;
};

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
  /// consumed. The contract the batched harness (through ProcessChunk's
  /// default) and the concurrent coordinators rely on: for every consumed
  /// update except possibly the last, no messages were sent and Estimate()
  /// is unchanged, so the tracking invariant can be checked against a
  /// cached estimate instead of a virtual call per item.
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
  /// entry point: `runs` (non-empty, as psi's Assign emits them, though
  /// neighbours may share a site) give the sites of `values` in order, and
  /// their lengths add up to values.size(). Consumes at least one update,
  /// stops no later than right after the first update that triggers
  /// communication, and reports where it stopped; over the consumed
  /// updates except possibly the last no message was sent and Estimate()
  /// is unchanged. A chunk-driven run must be bit-identical to the same
  /// updates fed one at a time. Every run it starts is range-checked: an
  /// out-of-range site aborts.
  ///
  /// The default handles the leading run only: ProcessUpdate for a run of
  /// one, ProcessBatch over a longer run. Protocols whose silent updates
  /// are cheap override it to walk the runs in one virtual call.
  virtual ChunkStop ProcessChunk(std::span<const SiteRun> runs,
                                 std::span<const double> values) {
    NMC_CHECK(!runs.empty());
    const SiteRun& run = runs[0];
    const int site = run.site;
    NMC_CHECK_GE(site, 0);
    NMC_CHECK_LT(site, num_sites());
    NMC_CHECK_GE(run.length, 1);
    NMC_CHECK_LE(run.length, static_cast<int64_t>(values.size()));
    int64_t consumed = 1;
    if (run.length == 1) {
      ProcessUpdate(site, values[0]);
    } else {
      consumed = ProcessBatch(
          site, values.first(static_cast<size_t>(run.length)));
      NMC_CHECK_LE(consumed, run.length);
    }
    if (consumed == run.length) return ChunkStop{consumed, 1, 0};
    return ChunkStop{consumed, 0, static_cast<uint32_t>(consumed)};
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

