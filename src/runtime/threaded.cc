#include "runtime/threaded.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <future>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/huge_pages.h"
#include "common/spsc_queue.h"
#include "common/thread_pool.h"
#include "runtime/serving.h"
#include "sim/registry.h"

namespace nmc::runtime {

namespace {

/// Per-site mailbox capacity in updates (a power of two; RingCapacity
/// checks it at compile time).
constexpr size_t kMailboxCapacity = size_t{1} << 12;

void SiteLoop(const std::vector<double>& shard,
              common::SpscQueue<double>* inbox) {
  size_t pos = 0;
  const std::span<const double> all(shard);
  while (pos < all.size()) {
    const size_t pushed = inbox->TryPushSpan(all.subspan(pos));
    pos += pushed;
    if (pushed == 0) std::this_thread::yield();
  }
}

}  // namespace

ThreadedRunResult RunThreaded(sim::Protocol* protocol,
                              std::span<const std::vector<double>> shards,
                              const ThreadedRunOptions& options) {
  NMC_CHECK(protocol != nullptr);
  const int num_sites = protocol->num_sites();
  NMC_CHECK_EQ(static_cast<int>(shards.size()), num_sites);
  NMC_CHECK_GE(options.num_readers, 0);

  int64_t total_updates = 0;
  for (const std::vector<double>& shard : shards) {
    total_updates += static_cast<int64_t>(shard.size());
  }

  std::vector<std::unique_ptr<common::SpscQueue<double>>> inboxes;
  inboxes.reserve(static_cast<size_t>(num_sites));
  for (int i = 0; i < num_sites; ++i) {
    inboxes.push_back(std::make_unique<common::SpscQueue<double>>(
        common::RingCapacity<kMailboxCapacity>{}));
  }
  // Sites on pool threads, then readers on the serving state's own pool;
  // the coordinator is the calling thread, so no pool ever has to
  // schedule a task that other running tasks spin-wait on.
  common::ThreadPool pool(num_sites);
  std::vector<std::future<void>> joins;
  joins.reserve(static_cast<size_t>(num_sites));
  for (int i = 0; i < num_sites; ++i) {
    joins.push_back(pool.Submit([&shards, &inboxes, i]() {
      SiteLoop(shards[static_cast<size_t>(i)],
               inboxes[static_cast<size_t>(i)].get());
    }));
  }
  ThreadedRunResult result;
  internal::ServingState serving(&result, options.capture,
                                 options.num_readers, total_updates,
                                 protocol->Estimate());

  // Coordinator: the sites take turns of kTurnUpdates in a fixed
  // rotation, each turn waiting on its site's mailbox until the turn is
  // complete or the shard is used up. The shard sizes are known, so the
  // run ends when every site's count is consumed, and the consumption
  // order (and with it every result bit) follows from the shards alone.
  // Each turn feeds contiguous spans straight from the ring storage into
  // ProcessBatch (zero copies) and publishes the estimate at every point
  // the protocol may have changed it (each ProcessBatch return).
  std::vector<int64_t> remaining(static_cast<size_t>(num_sites));
  for (int s = 0; s < num_sites; ++s) {
    remaining[static_cast<size_t>(s)] =
        static_cast<int64_t>(shards[static_cast<size_t>(s)].size());
  }
  int64_t consumed_total = 0;
  double estimate = protocol->Estimate();
  while (consumed_total < total_updates) {
    for (int s = 0; s < num_sites; ++s) {
      common::SpscQueue<double>& inbox = *inboxes[static_cast<size_t>(s)];
      int64_t turn = std::min(kTurnUpdates, remaining[static_cast<size_t>(s)]);
      remaining[static_cast<size_t>(s)] -= turn;
      while (turn > 0) {
        const std::span<const double> batch =
            inbox.PeekContiguous(static_cast<size_t>(turn));
        if (batch.empty()) {
          std::this_thread::yield();
          continue;
        }
        size_t pos = 0;
        while (pos < batch.size()) {
          const int64_t consumed =
              protocol->ProcessBatch(s, batch.subspan(pos));
          NMC_CHECK_GE(consumed, 1);
          if (options.capture) {
            for (int64_t j = 0; j < consumed; ++j) {
              result.transcript.push_back(TranscriptEntry{
                  s, batch[pos + static_cast<size_t>(j)]});
            }
          }
          pos += static_cast<size_t>(consumed);
          consumed_total += consumed;
          estimate = protocol->Estimate();
          serving.Publish(consumed_total, estimate);
        }
        inbox.Advance(batch.size());
        turn -= static_cast<int64_t>(batch.size());
      }
    }
  }
  NMC_CHECK_EQ(consumed_total, total_updates);
  for (std::future<void>& join : joins) join.get();
  serving.Finish();

  result.updates = consumed_total;
  result.final_published = PublishedEstimate{consumed_total, estimate};
  return result;
}

std::vector<std::vector<double>> ShardRoundRobin(
    const std::vector<double>& stream, int num_sites) {
  NMC_CHECK_GE(num_sites, 1);
  const size_t k = static_cast<size_t>(num_sites);
  const size_t n = stream.size();
  std::vector<std::vector<double>> shards;
  shards.reserve(k);
  std::vector<double*> out(k);
  for (size_t s = 0; s < k; ++s) {
    // Site s holds stream[s], stream[s + k], ...: ceil((n - s)/k) entries.
    const size_t size = s < n ? (n - s + k - 1) / k : 0;
    shards.push_back(common::ReserveStreamBuffer<double>(size));
    shards.back().resize(size);
    out[s] = shards.back().data();
  }
  // One pass over the stream, a round of k values at a time: shard s's
  // j-th entry is stream[s + j*k]. Reading the stream once per shard
  // instead would pull every cache line of it k times.
  const size_t full_rounds = n / k;
  const double* in = stream.data();
  for (size_t j = 0; j < full_rounds; ++j, in += k) {
    for (size_t s = 0; s < k; ++s) out[s][j] = in[s];
  }
  for (size_t s = 0; s < n % k; ++s) out[s][full_rounds] = in[s];
  return shards;
}

std::vector<double> InterleaveShards(
    std::span<const std::vector<double>> shards) {
  size_t total = 0;
  for (const std::vector<double>& shard : shards) total += shard.size();
  std::vector<double> stream = common::ReserveStreamBuffer<double>(total);
  for (size_t round = 0; stream.size() < total; ++round) {
    for (const std::vector<double>& shard : shards) {
      if (round < shard.size()) stream.push_back(shard[round]);
    }
  }
  return stream;
}

namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

std::string Mismatch(const char* what, int64_t generation, double got,
                     double want) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "%s at generation %lld: observed %.17g, oracle %.17g", what,
                static_cast<long long>(generation), got, want);
  return buffer;
}

}  // namespace

LinearizabilityReport CheckLinearizable(const ThreadedRunResult& run,
                                        sim::Protocol* oracle) {
  NMC_CHECK(oracle != nullptr);
  LinearizabilityReport report;
  if (run.transcript.empty() && run.updates > 0) {
    report.failure = "run was not captured (set ThreadedRunOptions::capture)";
    return report;
  }
  if (run.generation_regressions > 0) {
    report.failure = "a reader observed the published generation regress";
    return report;
  }

  // The oracle trajectory: the deterministic simulator's estimate after
  // each prefix of the captured consumption order.
  std::vector<double> trajectory =
      common::ReserveStreamBuffer<double>(run.transcript.size() + 1);
  trajectory.push_back(oracle->Estimate());
  for (const TranscriptEntry& entry : run.transcript) {
    oracle->ProcessUpdate(static_cast<int>(entry.site), entry.value);
    trajectory.push_back(oracle->Estimate());
  }

  const auto check = [&](const char* what, int64_t generation,
                         double estimate) {
    if (generation < 0 ||
        generation >= static_cast<int64_t>(trajectory.size())) {
      report.failure = Mismatch(what, generation, estimate, 0.0) +
                       " (generation outside the replayed range)";
      return false;
    }
    const double want = trajectory[static_cast<size_t>(generation)];
    if (!SameBits(estimate, want)) {
      report.failure = Mismatch(what, generation, estimate, want);
      return false;
    }
    return true;
  };

  for (const PublishedEstimate& published : run.publish_log) {
    if (!check("publish", published.generation, published.estimate)) {
      return report;
    }
    ++report.publishes_checked;
  }
  for (const std::vector<ReadSample>& samples : run.reader_samples) {
    for (const ReadSample& sample : samples) {
      if (!check("reader snapshot", sample.generation, sample.estimate)) {
        return report;
      }
      ++report.samples_checked;
    }
  }
  report.linearizable = true;
  return report;
}

bool TransportSupports(TransportKind kind, std::string_view name) {
  const sim::ProtocolTraits* traits =
      sim::ProtocolRegistry::Global().Traits(name);
  if (traits == nullptr) return false;
  // kSockets confines the protocol to the coordinator thread exactly like
  // kThreads (processes stream, they never touch protocol state), but the
  // serving layer still runs concurrent readers in-process, so both
  // concurrent backends require the same trait.
  return kind == TransportKind::kSim || traits->thread_safe;
}

std::unique_ptr<sim::Protocol> CreateForTransport(
    TransportKind kind, std::string_view name, int num_sites,
    const sim::ProtocolParams& params) {
  const sim::ProtocolTraits* traits =
      sim::ProtocolRegistry::Global().Traits(name);
  if (traits != nullptr && kind != TransportKind::kSim) {
    // Refuse loudly: silently running a thread-hostile protocol on a
    // concurrent backend would corrupt results, not just crash.
    NMC_CHECK(traits->thread_safe);
  }
  return sim::ProtocolRegistry::Global().Create(name, num_sites, params);
}

}  // namespace nmc::runtime
