// E14 — fault tolerance. The paper's protocols assume reliable channels;
// this harness measures what actually happens when that assumption breaks
// (Bernoulli loss, bounded delay, site crash windows) and what the
// coordinator-driven resync wrapper (sim::ReliableProtocol) buys back, in
// violation fraction and in message overhead. Degradation curves for the
// raw counter and the wrapped one are reported side by side; the
// perfect-channel column doubles as the bit-identity anchor (loss = 0 is
// the exact run every other experiment performs).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/exact_sync.h"
#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/table.h"
#include "core/nonmonotonic_counter.h"
#include "runtime/run.h"
#include "sim/channel.h"
#include "sim/reliable.h"
#include "streams/bernoulli.h"

namespace {

using nmc::bench::Banner;
using nmc::bench::Repeat;
using nmc::common::Format;

constexpr int64_t kN = 1 << 15;
constexpr double kEpsilon = 0.25;
constexpr double kDrift = 0.3;  // E[X]: the count grows, so relative
                                // error (and thus violations) is
                                // well-defined for most of the run

std::function<std::vector<double>(int)> DriftStream() {
  return [](int trial) {
    return nmc::streams::BernoulliStream(kN, kDrift,
                                         1500 + static_cast<uint64_t>(trial));
  };
}

nmc::sim::ChannelConfig LossChannel(double loss, uint64_t seed) {
  nmc::sim::ChannelConfig config;
  config.kind = nmc::sim::ChannelConfig::Kind::kLoss;
  config.loss = loss;
  config.seed = seed;
  return config;
}

nmc::core::CounterOptions BaseOptions(const nmc::sim::ChannelConfig& channel) {
  nmc::core::CounterOptions options;
  options.epsilon = kEpsilon;
  options.horizon_n = kN;
  options.seed = 1400;
  options.channel = channel;
  return options;
}

/// The counter exposed to the faulty channel with no recovery help.
std::function<std::unique_ptr<nmc::sim::Protocol>(int)> RawCounter(
    int num_sites, const nmc::sim::ChannelConfig& channel) {
  return [num_sites, channel](int trial) {
    nmc::core::CounterOptions options = BaseOptions(channel);
    options.seed += static_cast<uint64_t>(trial) * 7919;
    if (options.channel.faulty()) {
      options.channel.seed += static_cast<uint64_t>(trial) * 7919;
    }
    return std::make_unique<nmc::core::NonMonotonicCounter>(num_sites,
                                                            options);
  };
}

/// The same counter under the resync wrapper (default backoff schedule).
std::function<std::unique_ptr<nmc::sim::Protocol>(int)> WrappedCounter(
    int num_sites, const nmc::sim::ChannelConfig& channel) {
  auto make_inner = RawCounter(num_sites, channel);
  return [make_inner](int trial) -> std::unique_ptr<nmc::sim::Protocol> {
    return std::make_unique<nmc::sim::ReliableProtocol>(make_inner(trial));
  };
}

void LossSweep() {
  std::printf("\n-- Bernoulli loss: violation fraction and message overhead "
              "(k = 4, n = 2^15, eps = 0.25) --\n");
  const int k = 4;
  const auto perfect =
      Repeat(3, k, kEpsilon, DriftStream(), RawCounter(k, {}));
  nmc::common::Table table({"loss", "raw_viol", "reliable_viol", "raw_msgs",
                            "reliable_msgs", "msg_overhead"});
  table.AddRow({Format(0.0, 2), Format(perfect.violation_fraction, 4),
                Format(perfect.violation_fraction, 4),
                Format(perfect.mean_messages, 0),
                Format(perfect.mean_messages, 0), Format(1.0, 2)});
  for (double loss : {0.01, 0.02, 0.05, 0.1, 0.2}) {
    const auto channel = LossChannel(loss, 1410);
    const auto raw = Repeat(3, k, kEpsilon, DriftStream(),
                            RawCounter(k, channel));
    const auto reliable = Repeat(3, k, kEpsilon, DriftStream(),
                                 WrappedCounter(k, channel));
    table.AddRow({Format(loss, 2), Format(raw.violation_fraction, 4),
                  Format(reliable.violation_fraction, 4),
                  Format(raw.mean_messages, 0),
                  Format(reliable.mean_messages, 0),
                  Format(reliable.mean_messages / perfect.mean_messages, 2)});
  }
  table.Print();
  std::printf("expected: the raw counter's violation fraction grows with the\n"
              "loss rate (every lost sync leaves a stale coordinator); the\n"
              "wrapper holds it near the perfect-channel floor for a modest\n"
              "constant-factor message overhead\n");
}

void CrashSweep() {
  std::printf("\n-- site crashes: fraction of sites silenced for a 2048-tick "
              "window (k = 8) --\n");
  const int k = 8;
  nmc::common::Table table({"crashed_sites", "raw_viol", "reliable_viol",
                            "raw_msgs", "reliable_msgs"});
  for (int crashed : {0, 1, 2, 4}) {
    nmc::sim::ChannelConfig channel;
    if (crashed > 0) {
      channel.kind = nmc::sim::ChannelConfig::Kind::kCrash;
      for (int site = 0; site < crashed; ++site) {
        // Staggered windows: site i is dark for ticks [4096+2048i,
        // 6144+2048i) — losses arrive as separate events, not one burst.
        const int64_t start = 4096 + 2048 * static_cast<int64_t>(site);
        channel.crashes.push_back(
            nmc::sim::CrashInterval{site, start, start + 2048});
      }
    }
    const auto raw = Repeat(3, k, kEpsilon, DriftStream(),
                            RawCounter(k, channel));
    const auto reliable = Repeat(3, k, kEpsilon, DriftStream(),
                                 WrappedCounter(k, channel));
    table.AddRow({Format(static_cast<int64_t>(crashed)),
                  Format(raw.violation_fraction, 4),
                  Format(reliable.violation_fraction, 4),
                  Format(raw.mean_messages, 0),
                  Format(reliable.mean_messages, 0)});
  }
  table.Print();
  std::printf("expected: a crashed site keeps counting locally, so the raw\n"
              "coordinator is stale for the whole window; the wrapper's\n"
              "retries keep probing and land a clean collect as soon as the\n"
              "site returns\n");
}

void DelaySweep() {
  std::printf("\n-- bounded delay: messages late by <= 4 ticks, never lost "
              "(k = 4) --\n");
  const int k = 4;
  nmc::common::Table table({"delay_prob", "raw_viol", "reliable_viol",
                            "raw_msgs", "reliable_msgs"});
  for (double probability : {0.05, 0.2, 0.5}) {
    nmc::sim::ChannelConfig channel;
    channel.kind = nmc::sim::ChannelConfig::Kind::kDelay;
    channel.delay_probability = probability;
    channel.max_delay = 4;
    channel.seed = 1420;
    const auto raw = Repeat(3, k, kEpsilon, DriftStream(),
                            RawCounter(k, channel));
    const auto reliable = Repeat(3, k, kEpsilon, DriftStream(),
                                 WrappedCounter(k, channel));
    table.AddRow({Format(probability, 2), Format(raw.violation_fraction, 4),
                  Format(reliable.violation_fraction, 4),
                  Format(raw.mean_messages, 0),
                  Format(reliable.mean_messages, 0)});
  }
  table.Print();
  std::printf("expected: delay alone is far milder than loss — estimates lag\n"
              "by at most max_delay ticks — but the wrapper still treats\n"
              "in-flight resync traffic as dirty and re-probes\n");
}

void ResyncDiagnostics() {
  std::printf("\n-- resync wrapper internals across loss rates (k = 4, one "
              "run each) --\n");
  const int k = 4;
  nmc::common::Table table({"loss", "loss_events", "resyncs", "retries",
                            "recoveries", "abandoned", "deadline_ticks"});
  for (double loss : {0.02, 0.05, 0.1, 0.2}) {
    nmc::sim::ReliableProtocol protocol(
        RawCounter(k, LossChannel(loss, 1430))(0));
    const std::vector<double> stream = DriftStream()(0);
    for (int64_t t = 0; t < kN; ++t) {
      protocol.ProcessUpdate(static_cast<int>(t % k),
                             stream[static_cast<size_t>(t)]);
    }
    const nmc::sim::ReliableDiagnostics& d = protocol.diagnostics();
    table.AddRow({Format(loss, 2), Format(d.loss_events), Format(d.resyncs),
                  Format(d.retries), Format(d.recoveries),
                  Format(d.abandoned),
                  Format(protocol.RecoveryDeadlineTicks())});
  }
  table.Print();
  std::printf("expected: resyncs/retries scale with the loss rate; nearly\n"
              "every loss event ends in a recovery well inside the deadline\n"
              "(abandonment stays a rare escape hatch)\n");
}

// ---------------------------------------------------------------------------
// --transport=sockets: the same fault families injected at the socket
// layer against real forked site processes. The protocol under test is the
// exact-sync baseline (estimate == sum of consumed updates, bit for bit),
// so the checker epsilon can be tiny: any lost mass on the raw link shows
// up as violations, while the reliable link's go-back-N replay keeps the
// run exactly violation-free. That is the acceptance contract — this mode
// exits nonzero if either side of it fails.
// ---------------------------------------------------------------------------

/// Small checker tolerance for the exact protocol: 1% socket loss drops
/// ~1% of |S|, far above this, while the reliable run is bit-exact.
constexpr double kSocketEps = 0.002;
constexpr int kSocketSites = 4;
constexpr int64_t kSocketDeadline = 1 << 14;

nmc::runtime::RunResult SocketRun(const std::vector<double>& stream,
                                  bool reliable,
                                  const nmc::runtime::SocketFaultOptions&
                                      faults) {
  nmc::baselines::ExactSyncProtocol protocol(kSocketSites);
  nmc::runtime::RunConfig config;
  config.protocol = &protocol;
  config.stream = &stream;
  config.sockets.reliable = reliable;
  config.sockets.faults = faults;
  config.sockets.epsilon = kSocketEps;
  config.sockets.rel_error_floor = 32.0;  // skip the near-zero-sum prefix
  config.sockets.resync_deadline_updates = kSocketDeadline;
  return nmc::runtime::RunWithTransport(
      nmc::runtime::TransportKind::kSockets, config);
}

bool SocketLossSweep() {
  std::printf("\n-- socket-level Bernoulli loss: raw link vs go-back-N "
              "reliable link (k = %d, n = 2^15, exact_sync, eps = %.3f) "
              "--\n",
              kSocketSites, kSocketEps);
  const std::vector<double> stream = DriftStream()(0);
  nmc::common::Table table({"loss", "raw_viol", "raw_lost", "rel_viol",
                            "rel_lost", "rel_nacks", "rel_dups"});
  bool ok = true;
  for (double loss : {0.0, 0.01, 0.05}) {
    nmc::runtime::SocketFaultOptions faults;
    faults.loss = loss;
    faults.seed = 1440 + static_cast<uint64_t>(loss * 1000.0);
    const auto raw = SocketRun(stream, /*reliable=*/false, faults);
    const auto rel = SocketRun(stream, /*reliable=*/true, faults);
    table.AddRow({Format(loss, 2),
                  Format(raw.sockets.violation_steps),
                  Format(raw.sockets.updates_lost),
                  Format(rel.sockets.violation_steps),
                  Format(rel.sockets.updates_lost),
                  Format(rel.sockets.nacks_sent),
                  Format(rel.sockets.duplicate_updates)});
    if (rel.sockets.violation_steps != 0 || rel.sockets.updates_lost != 0 ||
        rel.sockets.timed_out || rel.serving.updates != kN) {
      std::printf("FAIL: reliable link at loss %.2f is not exact "
                  "(viol=%lld lost=%lld updates=%lld timed_out=%d)\n",
                  loss, static_cast<long long>(rel.sockets.violation_steps),
                  static_cast<long long>(rel.sockets.updates_lost),
                  static_cast<long long>(rel.serving.updates),
                  rel.sockets.timed_out ? 1 : 0);
      ok = false;
    }
    if (loss > 0.0 && raw.sockets.violation_steps == 0) {
      std::printf("FAIL: raw link at loss %.2f produced no violations "
                  "(lost=%lld)\n",
                  loss, static_cast<long long>(raw.sockets.updates_lost));
      ok = false;
    }
    if (loss > 0.0) {
      nmc::bench::RecordMetric(
          "sockets_raw_viol_loss" + std::to_string(
              static_cast<int>(loss * 100.0)),
          static_cast<double>(raw.sockets.violation_steps));
    }
  }
  table.Print();
  std::printf("expected: the raw link loses ~loss*n updates and violates "
              "the\n%.3f-tracking bound almost immediately; the reliable "
              "link NACKs\nevery gap, re-consumes the retransmissions "
              "in order and finishes\nbit-exact (zero violations, zero "
              "lost)\n",
              kSocketEps);
  return ok;
}

bool SocketCrashSweep() {
  std::printf("\n-- SIGKILL mid-run: respawn-and-resync on the reliable "
              "link vs dead-forever on the raw link (k = %d) --\n",
              kSocketSites);
  const std::vector<double> stream = DriftStream()(0);
  nmc::runtime::SocketFaultOptions faults;
  faults.kills.push_back(nmc::runtime::SiteKillSpec{1, 2048});
  faults.kills.push_back(nmc::runtime::SiteKillSpec{2, 4096});
  const auto rel = SocketRun(stream, /*reliable=*/true, faults);
  const auto raw = SocketRun(stream, /*reliable=*/false, faults);
  nmc::common::Table table({"link", "kills", "respawns", "recovered",
                            "max_recovery", "viol", "updates", "lost"});
  table.AddRow({"reliable", Format(rel.sockets.kills_delivered),
                Format(rel.sockets.respawns),
                rel.sockets.all_kills_recovered ? "yes" : "no",
                Format(rel.sockets.max_recovery_updates),
                Format(rel.sockets.violation_steps),
                Format(rel.serving.updates),
                Format(rel.sockets.updates_lost)});
  table.AddRow({"raw", Format(raw.sockets.kills_delivered),
                Format(raw.sockets.respawns),
                raw.sockets.all_kills_recovered ? "yes" : "no",
                Format(raw.sockets.max_recovery_updates),
                Format(raw.sockets.violation_steps),
                Format(raw.serving.updates),
                Format(raw.sockets.updates_lost)});
  table.Print();
  bool ok = true;
  if (!rel.sockets.all_kills_recovered || rel.sockets.respawns < 2 ||
      rel.sockets.violation_steps != 0 || rel.serving.updates != kN ||
      rel.sockets.max_recovery_updates > kSocketDeadline) {
    std::printf("FAIL: reliable link did not recover both kills within "
                "%lld updates (recovered=%d respawns=%lld "
                "max_recovery=%lld viol=%lld updates=%lld)\n",
                static_cast<long long>(kSocketDeadline),
                rel.sockets.all_kills_recovered ? 1 : 0,
                static_cast<long long>(rel.sockets.respawns),
                static_cast<long long>(rel.sockets.max_recovery_updates),
                static_cast<long long>(rel.sockets.violation_steps),
                static_cast<long long>(rel.serving.updates));
    ok = false;
  }
  if (raw.sockets.all_kills_recovered || raw.sockets.respawns != 0 ||
      raw.serving.updates >= kN) {
    std::printf("FAIL: raw link unexpectedly recovered from SIGKILL "
                "(respawns=%lld updates=%lld)\n",
                static_cast<long long>(raw.sockets.respawns),
                static_cast<long long>(raw.serving.updates));
    ok = false;
  }
  nmc::bench::RecordMetric(
      "sockets_max_recovery_updates",
      static_cast<double>(rel.sockets.max_recovery_updates));
  std::printf("expected: the reliable coordinator sees EOF, reforks the "
              "site at its\nconsumption cursor and the replacement "
              "finishes the shard exactly\n(zero violations); raw kills "
              "truncate the shard — the tail is lost\nand the run still "
              "tears down cleanly\n");
  return ok;
}

bool SocketSweeps() {
  Banner("E14 — fault injection over real sockets: forked sites, framed "
         "wire, loss and SIGKILL at the OS layer",
         "the sim fault channels' process-level twins");
  bool ok = SocketLossSweep();
  ok = SocketCrashSweep() && ok;
  if (!ok) {
    std::printf("\nE14 sockets acceptance FAILED (see FAIL lines above)\n");
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  nmc::bench::InitBench(argc, argv, "bench_e14_fault_tolerance");
  if (nmc::bench::BenchTransport() ==
      nmc::runtime::TransportKind::kSockets) {
    const bool ok = SocketSweeps();
    const int json_status = nmc::bench::FinishBench();
    return ok ? json_status : 1;
  }
  Banner("E14 — fault injection: loss, delay, and crashes vs the resync "
         "wrapper",
         "graceful degradation beyond the paper's reliable-channel model");
  LossSweep();
  CrashSweep();
  DelaySweep();
  ResyncDiagnostics();
  return nmc::bench::FinishBench();
}
