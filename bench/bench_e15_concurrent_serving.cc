// E15 — concurrent serving: the threaded transport backend vs the
// deterministic simulator pump. The protocol is the same single-threaded
// state machine either way; this bench measures what the runtime around it
// costs and buys: update throughput through the SPSC mailboxes vs a bare
// in-thread ProcessBatch pump, and query throughput of m reader threads
// snapshotting the seqlock-published estimate wait-free.
//
// Flags (on top of the shared set): --sites=K, --readers=M (pins the
// reader sweep to one point), --updates=N, --protocol=NAME. With
// --transport=sim only the pump reference runs; --transport=threads runs
// the in-process backend (the CI TSan smoke runs `--transport=threads
// --sites=2 --readers=2`) and --transport=sockets runs the same sweep
// with the sites as forked processes streaming wire frames over Unix
// sockets (the CI multi-process smoke). Both concurrent backends end in
// the linearizability epilogue against the sim oracle.
//
// Every reported number is also recorded via RecordMetric, so the BENCH
// json carries bench/bench_e15_concurrent_serving/<metric> rows for
// scripts/compare_bench.py.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "registry/builtin.h"
#include "runtime/run.h"
#include "sim/registry.h"
#include "streams/bernoulli.h"

namespace {

using nmc::bench::BenchTransport;
using nmc::bench::RecordMetric;
using nmc::runtime::TransportKind;

struct E15Options {
  int sites = 4;
  int readers = 0;  // 0 = sweep {1, 2, 4, 8}
  int64_t updates = 1 << 16;
  std::string protocol = "counter";
};

constexpr double kEpsilon = 0.25;
constexpr uint64_t kStreamSeed = 1500;
constexpr uint64_t kCounterSeed = 23;

[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr,
               "bench_e15_concurrent_serving: %s\n"
               "own flags: --sites=K, --readers=M, --updates=N, "
               "--protocol=NAME; plus the shared set (%s)\n",
               message.c_str(), nmc::bench::BenchFlagHelp().c_str());
  std::exit(2);
}

E15Options ParseOwnFlags(const std::vector<std::string>& rest) {
  E15Options options;
  for (const std::string& token : rest) {
    const size_t eq = token.find('=');
    const std::string key = token.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : token.substr(eq + 1);
    if (key == "--sites") {
      options.sites = std::atoi(value.c_str());
      if (options.sites < 1) UsageError("--sites must be >= 1");
    } else if (key == "--readers") {
      options.readers = std::atoi(value.c_str());
      if (options.readers < 1) UsageError("--readers must be >= 1");
    } else if (key == "--updates") {
      options.updates = std::atoll(value.c_str());
      if (options.updates < 1) UsageError("--updates must be >= 1");
    } else if (key == "--protocol") {
      if (value.empty()) UsageError("--protocol needs a name");
      options.protocol = value;
    } else {
      UsageError("unknown flag " + token);
    }
  }
  return options;
}

nmc::sim::ProtocolParams Params(const E15Options& options) {
  nmc::sim::ProtocolParams params;
  params.epsilon = kEpsilon;
  params.horizon_n = options.updates;
  params.seed = kCounterSeed;
  return params;
}

std::unique_ptr<nmc::sim::Protocol> FreshProtocol(const E15Options& options,
                                                  TransportKind kind) {
  return nmc::runtime::CreateForTransport(kind, options.protocol,
                                          options.sites, Params(options));
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The single-threaded reference: the same shards, consumed on one thread
/// in the same visiting pattern as the threaded coordinator (round-robin
/// over sites, up to 256 contiguous updates per visit, ProcessBatch), with
/// no queues, threads, or publishes in the way. This is the pump the
/// threaded backend's update throughput is judged against.
double SimPumpUpdatesPerSec(const E15Options& options,
                            const std::vector<std::vector<double>>& shards) {
  const std::unique_ptr<nmc::sim::Protocol> protocol =
      FreshProtocol(options, TransportKind::kSim);
  constexpr size_t kVisit = 256;
  std::vector<size_t> pos(shards.size(), 0);
  int64_t total = 0;
  const auto start = std::chrono::steady_clock::now();
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (size_t s = 0; s < shards.size(); ++s) {
      const std::vector<double>& shard = shards[s];
      if (pos[s] >= shard.size()) continue;
      progressed = true;
      const size_t want = std::min(kVisit, shard.size() - pos[s]);
      const std::span<const double> batch(&shard[pos[s]], want);
      size_t offset = 0;
      while (offset < batch.size()) {
        offset += static_cast<size_t>(protocol->ProcessBatch(
            static_cast<int>(s), batch.subspan(offset)));
        total += 1;  // count ProcessBatch calls only for the loop's shape
      }
      pos[s] += want;
    }
  }
  const double elapsed = Seconds(start);
  int64_t updates = 0;
  for (const std::vector<double>& shard : shards) {
    updates += static_cast<int64_t>(shard.size());
  }
  return elapsed > 0.0 ? static_cast<double>(updates) / elapsed : 0.0;
}

struct ServingPoint {
  int readers = 0;
  double updates_per_sec = 0.0;
  double reads_per_sec = 0.0;
  int64_t torn_reads = 0;
  /// Sockets only: polls a turn made on its site's empty socket, and
  /// their summed wall time.
  int64_t turn_waits = 0;
  double turn_wait_s = 0.0;
};

/// One reader-count point on a concurrent backend (threads or sockets),
/// through the unified transport entry point.
ServingPoint RunServingPoint(const E15Options& options,
                             const std::vector<std::vector<double>>& shards,
                             int readers, TransportKind kind) {
  const std::unique_ptr<nmc::sim::Protocol> protocol =
      FreshProtocol(options, kind);
  nmc::runtime::RunConfig config;
  config.protocol = protocol.get();
  config.shards = shards;
  config.threaded.num_readers = readers;
  config.sockets.num_readers = readers;
  config.sockets.epsilon = kEpsilon;
  const auto start = std::chrono::steady_clock::now();
  const nmc::runtime::RunResult result =
      nmc::runtime::RunWithTransport(kind, config);
  const double elapsed = Seconds(start);
  ServingPoint point;
  point.readers = readers;
  if (elapsed > 0.0) {
    point.updates_per_sec =
        static_cast<double>(result.serving.updates) / elapsed;
    point.reads_per_sec =
        static_cast<double>(result.serving.total_reads) / elapsed;
  }
  point.torn_reads = result.serving.torn_reads;
  point.turn_waits = result.sockets.turn_waits;
  point.turn_wait_s = result.sockets.turn_wait_s;
  return point;
}

/// A small captured run replayed against the deterministic simulator: every
/// published estimate and every reader snapshot must be bit-identical to
/// the oracle's trajectory at its generation. Aborts the bench (exit 1) on
/// a violation — a concurrency bug, not a perf result.
bool VerifyLinearizable(const E15Options& options, TransportKind kind) {
  E15Options small = options;
  small.updates = std::min<int64_t>(options.updates, 1 << 14);
  const std::vector<double> stream = nmc::streams::BernoulliStream(
      small.updates, 0.0, kStreamSeed);
  const std::vector<std::vector<double>> shards =
      nmc::runtime::ShardRoundRobin(stream, small.sites);

  const std::unique_ptr<nmc::sim::Protocol> protocol =
      FreshProtocol(small, kind);
  nmc::runtime::RunConfig config;
  config.protocol = protocol.get();
  config.shards = shards;
  config.threaded.num_readers = 2;
  config.threaded.capture = true;
  config.sockets.num_readers = 2;
  config.sockets.capture = true;
  config.sockets.epsilon = kEpsilon;
  const nmc::runtime::RunResult result =
      nmc::runtime::RunWithTransport(kind, config);

  const std::unique_ptr<nmc::sim::Protocol> oracle =
      FreshProtocol(small, TransportKind::kSim);
  const nmc::runtime::LinearizabilityReport report =
      nmc::runtime::CheckLinearizable(result, oracle.get());
  if (!report.linearizable) {
    std::fprintf(stderr, "LINEARIZABILITY VIOLATION: %s\n",
                 report.failure.c_str());
    return false;
  }
  std::printf("linearizability: %lld publishes + %lld reader snapshots "
              "replay bit-identically against the sim oracle\n",
              static_cast<long long>(report.publishes_checked),
              static_cast<long long>(report.samples_checked));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> rest;
  nmc::bench::InitBenchRest(argc, argv, "bench_e15_concurrent_serving", &rest,
                            /*applies_channel=*/false);
  const E15Options options = ParseOwnFlags(rest);
  nmc::registry::RegisterBuiltinProtocols();
  if (!nmc::runtime::TransportSupports(TransportKind::kSim,
                                       options.protocol)) {
    UsageError("unknown protocol '" + options.protocol + "'");
  }

  nmc::bench::Banner(
      "E15 — concurrent serving: threaded transport vs simulator pump",
      "same protocol state machine; the runtime adds wait-free reads");
  std::printf("sites=%d updates=%lld protocol=%s transport=%s\n",
              options.sites, static_cast<long long>(options.updates),
              options.protocol.c_str(),
              nmc::runtime::TransportKindName(BenchTransport()));

  const std::vector<double> stream = nmc::streams::BernoulliStream(
      options.updates, 0.0, kStreamSeed);
  const std::vector<std::vector<double>> shards =
      nmc::runtime::ShardRoundRobin(stream, options.sites);

  const double sim_ups = SimPumpUpdatesPerSec(options, shards);
  std::printf("\nsim pump (single thread, no queues): %.3e updates/sec\n",
              sim_ups);
  RecordMetric("sim_pump_updates_per_sec", sim_ups);

  const TransportKind kind = BenchTransport();
  if (kind == TransportKind::kSim) {
    std::printf("(--transport=sim: skipping the concurrent sweep)\n");
    return nmc::bench::FinishBench();
  }
  if (!nmc::runtime::TransportSupports(kind, options.protocol)) {
    UsageError("protocol '" + options.protocol +
               "' is quarantined to --transport=sim (thread_safe trait)");
  }
  const char* kind_name = nmc::runtime::TransportKindName(kind);

  std::vector<int> sweep;
  if (options.readers > 0) {
    sweep.push_back(options.readers);
  } else {
    sweep = {1, 2, 4, 8};
  }
  std::printf("\n-- %s backend: %d sites, m reader threads --\n", kind_name,
              options.sites);
  // Sockets runs add the transport's turn waits and their summed wall
  // time (SocketStats::turn_waits, turn_wait_s).
  const bool sockets = kind == TransportKind::kSockets;
  std::printf("%8s  %16s  %16s  %12s%s\n", "readers", "updates/sec",
              "reads/sec", "torn reads",
              sockets ? "    turn waits  turn wait ms" : "");
  std::vector<ServingPoint> points;
  for (const int m : sweep) {
    points.push_back(RunServingPoint(options, shards, m, kind));
    const ServingPoint& p = points.back();
    std::printf("%8d  %16.3e  %16.3e  %12lld", p.readers, p.updates_per_sec,
                p.reads_per_sec, static_cast<long long>(p.torn_reads));
    if (sockets) {
      std::printf("  %12lld  %12.2f", static_cast<long long>(p.turn_waits),
                  p.turn_wait_s * 1e3);
    }
    std::printf("\n");
    char name[64];
    std::snprintf(name, sizeof(name), "%s_updates_per_sec_m%d", kind_name,
                  p.readers);
    RecordMetric(name, p.updates_per_sec);
    std::snprintf(name, sizeof(name), "reads_per_sec_m%d", p.readers);
    RecordMetric(name, p.reads_per_sec);
    if (sockets) {
      std::snprintf(name, sizeof(name), "sockets_turn_waits_m%d", p.readers);
      RecordMetric(name, static_cast<double>(p.turn_waits));
      std::snprintf(name, sizeof(name), "sockets_turn_wait_s_m%d", p.readers);
      RecordMetric(name, p.turn_wait_s);
    }
  }

  const ServingPoint& first = points.front();
  if (sim_ups > 0.0) {
    char name[64];
    std::snprintf(name, sizeof(name), "%s_vs_sim_pump", kind_name);
    RecordMetric(name, first.updates_per_sec / sim_ups);
    std::printf("\n%s/sim update throughput: %.2fx (transport overhead; >1x "
                "needs real cores for the sites)\n",
                kind_name, first.updates_per_sec / sim_ups);
  }
  if (points.size() > 1 && first.reads_per_sec > 0.0) {
    const double scaling = points.back().reads_per_sec / first.reads_per_sec;
    RecordMetric("reader_scaling", scaling);
    std::printf("reader scaling m=%d vs m=%d: %.2fx (wait-free reads; "
                "scaling needs >= m cores)\n",
                points.back().readers, first.readers, scaling);
  }

  std::printf("\n-- linearizability (captured %s run vs sim oracle) --\n",
              kind_name);
  if (!VerifyLinearizable(options, kind)) return 1;
  return nmc::bench::FinishBench();
}
