#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/atomic_policy.h"
#include "common/huge_pages.h"
#include "common/seqlock.h"
#include "common/thread_pool.h"
#include "runtime/threaded.h"

namespace nmc::runtime::internal {

/// The seqlock serving layer shared by every concurrent transport backend
/// (threads, sockets): the coordinator publishes PublishedEstimate
/// generations into one Seqlock slot, m reader threads poll it wait-free,
/// and their per-thread accumulators are folded into the run result only
/// after the pool has joined. Internal — backends include this; users see
/// the reader counters through RunResult/ThreadedRunResult.

/// Per-reader accumulator. Owned by one reader thread for the duration of
/// the run; the coordinator folds them only after the pool has joined.
struct ReaderStats {
  int64_t reads = 0;
  int64_t torn = 0;
  int64_t regressions = 0;
  int64_t sampled = 0;
  std::vector<ReadSample> samples;
};

/// Reader snapshots are thinned by a fixed stride and retained in a ring,
/// so both early and late generations survive into the linearizability
/// check without unbounded memory. Prime, so readers de-synchronize from
/// the coordinator's publish cadence instead of aliasing it.
inline constexpr int64_t kSampleStride = 17;

/// Snapshots each reader retains (ring-replaced, so the tail of the run
/// stays covered).
inline constexpr int64_t kReaderSampleCapacity = 256;

/// Yield cadence for the spin paths. On an oversubscribed machine (more
/// threads than cores — CI runners, small VMs) an unyielding spin
/// loop starves the very thread it waits on.
inline constexpr int64_t kReaderYieldEvery = 256;

inline constexpr size_t kCacheLineBytes = 64;

/// The readers' stop flag, alone on its cache line. Every reader loads it
/// once per iteration. Were the line shared with state the coordinator
/// writes per update, each such write would invalidate the readers' copy,
/// and every spin iteration would pull the line back across cores.
struct alignas(kCacheLineBytes) StopFlag {
  common::RuntimeAtomic<bool> value{false};
};
static_assert(alignof(StopFlag) == kCacheLineBytes &&
                  sizeof(StopFlag) == kCacheLineBytes,
              "the readers' stop flag must fill exactly one cache line");

inline void ReaderLoop(const common::Seqlock<PublishedEstimate>& slot,
                       const StopFlag& run_done, ReaderStats* stats) {
  stats->samples.resize(static_cast<size_t>(kReaderSampleCapacity));
  int64_t last_generation = 0;
  // Read before testing the stop flag, and keep going until one read has
  // landed: a reader the scheduler starts only after Finish() still takes
  // a snapshot, and the stride keeps the first read, so that snapshot is
  // sampled even when the run ends within 17 reads. Once the flag is
  // visible the coordinator has stopped publishing, so that retry cannot
  // tear.
  do {
    PublishedEstimate snapshot;
    if (!slot.TryRead(&snapshot)) {
      ++stats->torn;
      std::this_thread::yield();
      continue;
    }
    ++stats->reads;
    if (snapshot.generation < last_generation) {
      ++stats->regressions;
    } else {
      last_generation = snapshot.generation;
    }
    if ((stats->reads - 1) % kSampleStride == 0) {
      stats->samples[static_cast<size_t>(stats->sampled %
                                         kReaderSampleCapacity)] =
          ReadSample{snapshot.generation, snapshot.estimate};
      ++stats->sampled;
    }
    if (stats->reads % kReaderYieldEvery == 0) std::this_thread::yield();
  } while (stats->reads == 0 ||
           !run_done.value.load(std::memory_order_acquire));
}

/// One run's serving state: the seqlock slot, the readers' stop flag, the
/// reader pool, and the publish path with its capture log. Construction
/// publishes generation 0 and starts the readers; the coordinator calls
/// Publish() wherever the estimate may have changed (each ProcessBatch
/// return) and Finish() once, after its final publish.
class ServingState {
 public:
  /// `expected_updates` sizes the capture buffers: one transcript entry
  /// per update, and one publish per ProcessBatch return, which consumes
  /// several updates except in the chattiest regimes (the log grows past
  /// the reservation when it must).
  ServingState(ThreadedRunResult* result, bool capture, int num_readers,
               int64_t expected_updates, double initial_estimate)
      : result_(result),
        capture_(capture),
        reader_stats_(static_cast<size_t>(num_readers)) {
    if (capture_) {
      result_->transcript = common::ReserveStreamBuffer<TranscriptEntry>(
          static_cast<size_t>(expected_updates));
      result_->publish_log = common::ReserveStreamBuffer<PublishedEstimate>(
          static_cast<size_t>(expected_updates / 8 + 16));
    }
    Publish(0, initial_estimate);
    if (num_readers == 0) return;
    pool_ = std::make_unique<common::ThreadPool>(num_readers);
    joins_.reserve(static_cast<size_t>(num_readers));
    for (ReaderStats& stats : reader_stats_) {
      ReaderStats* rs = &stats;
      joins_.push_back(pool_->Submit(
          [this, rs]() { ReaderLoop(slot_, run_done_, rs); }));
    }
  }

  ServingState(const ServingState&) = delete;
  ServingState& operator=(const ServingState&) = delete;

  /// Releases any readers Finish() did not stop, so the pool can join.
  ~ServingState() { run_done_.value.store(true, std::memory_order_release); }

  /// Coordinator only: publishes `estimate` as generation `generation`.
  void Publish(int64_t generation, double estimate) {
    const PublishedEstimate published{generation, estimate};
    slot_.Publish(published);
    ++result_->publishes;
    if (capture_) result_->publish_log.push_back(published);
  }

  /// Stops and joins the readers, then folds their counters and retained
  /// snapshot rings (trimmed to what was actually sampled) into the
  /// result. The release store pairs with the readers' acquire load, so a
  /// reader exits only after the final publish is visible to it.
  void Finish() {
    run_done_.value.store(true, std::memory_order_release);
    for (std::future<void>& join : joins_) join.get();
    result_->reader_samples.reserve(reader_stats_.size());
    for (ReaderStats& stats : reader_stats_) {
      result_->total_reads += stats.reads;
      result_->torn_reads += stats.torn;
      result_->generation_regressions += stats.regressions;
      const int64_t kept =
          stats.sampled < static_cast<int64_t>(stats.samples.size())
              ? stats.sampled
              : static_cast<int64_t>(stats.samples.size());
      stats.samples.resize(static_cast<size_t>(kept));
      result_->reader_samples.push_back(std::move(stats.samples));
    }
  }

 private:
  ThreadedRunResult* result_;
  bool capture_;
  common::Seqlock<PublishedEstimate> slot_;
  StopFlag run_done_;
  /// Declared before the pool, so the pool joins the readers before the
  /// accumulators they write are destroyed.
  std::vector<ReaderStats> reader_stats_;
  std::unique_ptr<common::ThreadPool> pool_;
  std::vector<std::future<void>> joins_;
};

}  // namespace nmc::runtime::internal
