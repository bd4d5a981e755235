#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/transport.h"

namespace nmc::sim {
// Declarations below take these only by pointer/const-ref; pulling in
// sim/registry.h here would drag the channel/rng chain into every
// transport user and blow the include-depth budget.
class Protocol;
struct ProtocolParams;
}  // namespace nmc::sim

namespace nmc::runtime {

/// The coordinator's continuously published serving slot: the estimate
/// Ŝ_t after `generation` stream updates have been applied. 16 bytes —
/// two seqlock words.
struct PublishedEstimate {
  int64_t generation = 0;
  double estimate = 0.0;
};

/// One consumed update in coordinator order — the unit of the captured
/// transcript. Replaying the transcript through a fresh protocol instance
/// on the deterministic simulator reproduces the threaded run exactly
/// (the protocol itself is single-threaded either way; the only
/// nondeterminism is the mailbox interleaving, which the transcript pins).
struct TranscriptEntry {
  int64_t site = 0;
  double value = 0.0;
};

/// One reader-observed snapshot retained for the linearizability check.
struct ReadSample {
  int64_t generation = 0;
  double estimate = 0.0;
};

struct ThreadedRunOptions {
  /// Query-client threads reading the published estimate concurrently.
  int num_readers = 0;
  /// Record the transcript and the publish log for the linearizability
  /// check. Costs O(n) memory — meant for tests and verification runs.
  bool capture = false;
};

struct ThreadedRunResult {
  /// Updates consumed by the coordinator (== the summed shard lengths).
  int64_t updates = 0;
  /// Seqlock publishes (one per ProcessBatch return, plus the initial
  /// generation-0 publish).
  int64_t publishes = 0;
  /// Always 0: no backend sends coordinator->site echoes; kept for
  /// nmc_benchmark, which still reads them.
  int64_t echoes_sent = 0;
  int64_t echoes_received = 0;
  /// Pooled over readers. torn_reads counts snapshot attempts that lost
  /// the race with an in-flight publish (retried, never served torn).
  int64_t total_reads = 0;
  int64_t torn_reads = 0;
  /// Reader-observed generation going backwards — any nonzero value is a
  /// published-estimate ordering bug.
  int64_t generation_regressions = 0;
  PublishedEstimate final_published;
  /// Captured only when options.capture is set.
  std::vector<TranscriptEntry> transcript;
  std::vector<PublishedEstimate> publish_log;
  /// Per-reader retained snapshots (capture-independent).
  std::vector<std::vector<ReadSample>> reader_samples;
};

/// Runs `protocol` on the threaded transport backend: shards[i] streams
/// into site i's thread (spawned on a common::ThreadPool), updates flow
/// through lock-free SPSC mailboxes to the coordinator (the calling
/// thread), which applies them via Protocol::ProcessBatch and publishes
/// the estimate into a seqlock slot that options.num_readers concurrent
/// query threads read wait-free. Returns after every shard is consumed and
/// every thread has joined.
///
/// The protocol object itself is only ever touched by the coordinator
/// thread — protocols stay single-threaded state machines; the concurrency
/// lives in the transport around them.
///
/// Internal building block of runtime::RunWithTransport (runtime/run.h),
/// which is the public per-transport entry point; call this directly only
/// from code that is explicitly threads-backend-specific.
ThreadedRunResult RunThreaded(sim::Protocol* protocol,
                              std::span<const std::vector<double>> shards,
                              const ThreadedRunOptions& options);

/// Splits `stream` round-robin into `num_sites` shards — the canonical
/// sharding under which the sim transport's RoundRobinAssignment pumps the
/// exact same per-site subsequences as the threaded backend's site
/// threads. Shard s holds stream[s], stream[s + k], ...: exactly
/// ceil((n - s)/k) entries, none when s >= n.
std::vector<std::vector<double>> ShardRoundRobin(
    const std::vector<double>& stream, int num_sites);

/// Inverse of ShardRoundRobin: the canonical single-stream interleaving of
/// per-site shards, for driving the sim transport on a sharded workload.
std::vector<double> InterleaveShards(
    std::span<const std::vector<double>> shards);

/// Verdict of replaying a captured threaded run against the deterministic
/// simulator (the oracle).
struct LinearizabilityReport {
  bool linearizable = false;
  int64_t publishes_checked = 0;
  int64_t samples_checked = 0;
  /// Empty when linearizable; otherwise the first mismatch, human-readable.
  std::string failure;
};

/// Replays run.transcript through `oracle` — a fresh instance of the same
/// protocol under the same seed, i.e. the deterministic simulator — and
/// checks that every published estimate and every reader-retained snapshot
/// (generation g, estimate v) is bit-identical to the oracle's estimate
/// after exactly g updates. With the single coordinator as the only
/// writer, matching every read to a prefix of the one consumption order
/// *is* linearizability of the estimate register. Requires a run captured
/// with options.capture.
LinearizabilityReport CheckLinearizable(const ThreadedRunResult& run,
                                        sim::Protocol* oracle);

/// True when `name` is registered and can run on `kind` (the sim backend
/// accepts every protocol; the threaded backend requires the registry's
/// thread_safe trait).
bool TransportSupports(TransportKind kind, std::string_view name);

/// Builds a registered protocol for the given backend; aborts (like
/// ProtocolRegistry::Create) on an unknown name, and refuses — with the
/// trait spelled out — a protocol whose registry traits declare it unfit
/// for the threaded backend.
std::unique_ptr<sim::Protocol> CreateForTransport(
    TransportKind kind, std::string_view name, int num_sites,
    const sim::ProtocolParams& params);

}  // namespace nmc::runtime
