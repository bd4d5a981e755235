// M1 — google-benchmark microbenchmarks of the hot paths: counter update,
// HYZ update, full simulator pump (network + tracking checker), stream
// generation (fGn via FFT), hashing, and sketch update. These bound the
// simulator's throughput (updates/second), which is what limits the n the
// experiment harnesses can sweep.
//
// Accepts the shared bench flags, --json_out=PATH among them (mapped to
// --benchmark_out=PATH --benchmark_out_format=json for
// scripts/run_benches.sh's BENCH_baseline.json aggregation), alongside the
// native --benchmark_* flags.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baselines/exact_sync.h"
#include "bench/bench_json.h"
#include "common/batch_rng.h"
#include "common/geometric_skip.h"
#include "common/rng.h"
#include "core/nonmonotonic_counter.h"
#include "hyz/hyz_counter.h"
#include "runtime/run.h"
#include "runtime/threaded.h"
#include "sim/assignment.h"
#include "sim/harness.h"
#include "sim/message.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sketch/ams_sketch.h"
#include "sketch/hash.h"
#include "streams/bernoulli.h"
#include "streams/fbm.h"
#include "streams/fft.h"

namespace {

nmc::sim::TrackingOptions PumpTracking(double epsilon) {
  nmc::sim::TrackingOptions tracking;
  tracking.epsilon = epsilon;
  return tracking;
}

/// All pump benches drive the sim backend through the unified transport
/// entry point — the same call path the benches and tools use.
nmc::sim::TrackingResult PumpRun(const std::vector<double>& stream,
                                 nmc::sim::Protocol* protocol,
                                 nmc::sim::AssignmentPolicy* psi,
                                 const nmc::sim::TrackingOptions& tracking) {
  nmc::runtime::RunConfig config;
  config.protocol = protocol;
  config.stream = &stream;
  config.psi = psi;
  config.tracking = tracking;
  return nmc::runtime::RunWithTransport(nmc::runtime::TransportKind::kSim,
                                        config)
      .tracking;
}

void BM_CounterUpdate(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int64_t n = 1 << 22;  // large horizon: stays in the cheap regime
  nmc::core::CounterOptions options;
  options.epsilon = 0.25;
  options.horizon_n = n;
  options.seed = 1;
  nmc::core::NonMonotonicCounter counter(k, options);
  nmc::sim::RoundRobinAssignment psi(k);
  const auto stream = nmc::streams::BernoulliStream(1 << 16, 0.0, 2);
  int64_t t = 0;
  for (auto _ : state) {
    const double v = stream[static_cast<size_t>(t % (1 << 16))];
    counter.ProcessUpdate(psi.NextSite(t, v), v);
    ++t;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterUpdate)->Arg(1)->Arg(4)->Arg(16);

void BM_HyzUpdate(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  nmc::hyz::HyzOptions options;
  options.epsilon = 0.1;
  options.delta = 1e-6;
  options.seed = 3;
  nmc::hyz::HyzProtocol counter(k, options);
  nmc::sim::RoundRobinAssignment psi(k);
  int64_t t = 0;
  for (auto _ : state) {
    counter.ProcessUpdate(psi.NextSite(t, 1.0), 1.0);
    ++t;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HyzUpdate)->Arg(4)->Arg(16);

// The whole simulator path the experiment harnesses pay per update:
// assignment, protocol update, network delivery, and the per-step
// epsilon check in RunTracking. This is the number the hot-path
// optimizations (flat type breakdown, reused delivery queue, cached
// observer flag, reserved curve) move.
void BM_TrackingPump(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int64_t n = 1 << 15;
  const auto stream = nmc::streams::BernoulliStream(n, 0.0, 21);
  int64_t updates = 0;
  for (auto _ : state) {
    nmc::core::CounterOptions options;
    options.epsilon = 0.25;
    options.horizon_n = n;
    options.seed = 11;
    nmc::core::NonMonotonicCounter counter(k, options);
    nmc::sim::RoundRobinAssignment psi(k);
    const auto result = PumpRun(stream, &counter, &psi, PumpTracking(0.25));
    benchmark::DoNotOptimize(result.messages);
    updates += result.n;
  }
  state.SetItemsProcessed(updates);
}
BENCHMARK(BM_TrackingPump)->Arg(1)->Arg(8);

// The long-gap regime the fast-forward path targets: a drifted stream
// keeps |s| large, so the eq. (1) rate is tiny and inter-report gaps are
// long — the geometric skip consumes them in O(1) per run instead of one
// coin per update. (The zero-drift BM_TrackingPump above spends most of
// its life at rate ~1, where every update reports and no pump can skip.)
void BM_TrackingPumpLongGap(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int64_t n = 1 << 15;
  const auto stream = nmc::streams::BernoulliStream(n, 0.75, 21);
  int64_t updates = 0;
  for (auto _ : state) {
    nmc::core::CounterOptions options;
    options.epsilon = 0.25;
    options.horizon_n = n;
    options.seed = 11;
    nmc::core::NonMonotonicCounter counter(k, options);
    nmc::sim::RoundRobinAssignment psi(k);
    const auto result = PumpRun(stream, &counter, &psi, PumpTracking(0.25));
    benchmark::DoNotOptimize(result.messages);
    updates += result.n;
  }
  state.SetItemsProcessed(updates);
}
BENCHMARK(BM_TrackingPumpLongGap)->Arg(1)->Arg(8);

// The sim_drift_block shape: small positive drift with a bursty adversary
// sending 64-update blocks to each site in turn. Runs are long, so the pump's
// per-update costs (site assignment, run detection) sit next to a protocol
// that mostly skips.
void BM_TrackingPumpBlock(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int64_t n = 1 << 15;
  const auto stream = nmc::streams::BernoulliStream(n, 0.02, 21);
  int64_t updates = 0;
  for (auto _ : state) {
    nmc::core::CounterOptions options;
    options.epsilon = 0.25;
    options.horizon_n = n;
    options.seed = 11;
    nmc::core::NonMonotonicCounter counter(k, options);
    nmc::sim::BlockCyclicAssignment psi(k, 64);
    const auto result = PumpRun(stream, &counter, &psi, PumpTracking(0.25));
    benchmark::DoNotOptimize(result.messages);
    updates += result.n;
  }
  state.SetItemsProcessed(updates);
}
BENCHMARK(BM_TrackingPumpBlock)->Arg(8);

// Protocols that keep the default ProcessChunk, at k = 4: each call takes
// psi's leading run (or what a message left of it) to ProcessUpdate or
// ProcessBatch. HYZ under round-robin sees runs of one; exact_sync, which
// messages on every update, sees 64-update blocks and one chunk-long run
// per chunk, so each of its calls ends after one update of a long run.
void BM_TrackingPumpDefault(benchmark::State& state, const char* protocol,
                            const char* policy) {
  const int64_t n = 1 << 16;
  const bool hyz = std::strcmp(protocol, "hyz") == 0;
  // HYZ counts unit increments; exact_sync tracks a zero-drift walk.
  const std::vector<double> stream =
      hyz ? std::vector<double>(static_cast<size_t>(n), 1.0)
          : nmc::streams::BernoulliStream(n, 0.0, 21);
  int64_t updates = 0;
  for (auto _ : state) {
    std::unique_ptr<nmc::sim::Protocol> tracked;
    if (hyz) {
      nmc::hyz::HyzOptions options;
      options.epsilon = 0.1;
      options.delta = 1e-6;
      options.seed = 3;
      tracked = std::make_unique<nmc::hyz::HyzProtocol>(4, options);
    } else {
      tracked = std::make_unique<nmc::baselines::ExactSyncProtocol>(4);
    }
    auto psi = nmc::sim::MakeAssignment(policy, 4, /*seed=*/7);
    const auto result =
        PumpRun(stream, tracked.get(), psi.get(), PumpTracking(1.0));
    benchmark::DoNotOptimize(result.messages);
    updates += result.n;
  }
  state.SetItemsProcessed(updates);
}
BENCHMARK_CAPTURE(BM_TrackingPumpDefault, hyz_round_robin, "hyz",
                  "round_robin");
BENCHMARK_CAPTURE(BM_TrackingPumpDefault, exact_sync_block, "exact_sync",
                  "block");
BENCHMARK_CAPTURE(BM_TrackingPumpDefault, exact_sync_single, "exact_sync",
                  "single");

// Harness batch-size sweep over the long-gap config: quantifies how much
// of the fast-forward win needs the batched pump on top of the skip
// sampler (batch = 1 still pays one virtual call + invariant check per
// update).
void BM_BatchedPump(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const int64_t n = 1 << 15;
  const auto stream = nmc::streams::BernoulliStream(n, 0.75, 21);
  int64_t updates = 0;
  for (auto _ : state) {
    nmc::core::CounterOptions options;
    options.epsilon = 0.25;
    options.horizon_n = n;
    options.seed = 11;
    nmc::core::NonMonotonicCounter counter(1, options);
    nmc::sim::RoundRobinAssignment psi(1);
    nmc::sim::TrackingOptions tracking;
    tracking.epsilon = 0.25;
    tracking.batch_size = batch;
    const auto result = PumpRun(stream, &counter, &psi, tracking);
    benchmark::DoNotOptimize(result.messages);
    updates += result.n;
  }
  state.SetItemsProcessed(updates);
}
BENCHMARK(BM_BatchedPump)->Arg(1)->Arg(32)->Arg(256)->Arg(2048);

// Raw sampler cost per inter-report run at rate p = 1/range(0): one
// geometric-skip draw from the vectorized log-tail feed per run, consumed
// the way HYZ sites consume it. items/s counts stream updates consumed, so
// it is the per-update fast-forward rate with everything else stripped
// away.
void BM_SkipSampler(benchmark::State& state) {
  const double p = 1.0 / static_cast<double>(state.range(0));
  nmc::common::BatchRng batch(17);
  nmc::common::InvLogQMemo inv_log_q;
  nmc::common::GeometricSkip skip(&batch, &inv_log_q);
  int64_t items = 0;
  for (auto _ : state) {
    skip.EnsureGap(p);
    items += skip.gap() + 1;
    skip.Advance(skip.gap());
    skip.TakeCandidate();
  }
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_SkipSampler)->ArgNames({"inv_p"})->Arg(16)->Arg(1024);

// Bulk RNG throughput on the active SIMD dispatch target: uniforms and
// log-tails per second. The tail fill is the skip sampler's feed; the
// uniform fill is the stream generators'.
void BM_BatchRngFill(benchmark::State& state) {
  const bool tails = state.range(0) != 0;
  nmc::common::BatchRng rng(17);
  std::vector<double> out(4096);
  int64_t items = 0;
  for (auto _ : state) {
    if (tails) {
      rng.FillLogTails(std::span<double>(out));
    } else {
      rng.FillUniform(std::span<double>(out));
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    items += 4096;
  }
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_BatchRngFill)->ArgNames({"tails"})->Arg(0)->Arg(1);

// Set-up layer: one stream-sized buffer built from a fresh allocation per
// iteration, first-touch page faults included, as every seed's set-up
// pays them. A 2^22-double stream (32 MiB) is above glibc's largest mmap
// threshold, so each one is a new mapping rather than reused heap pages.
constexpr int64_t kSetupUpdates = int64_t{1} << 22;

void BM_SetupBernoulli(benchmark::State& state) {
  uint64_t seed = 23;
  for (auto _ : state) {
    std::vector<double> stream =
        nmc::streams::BernoulliStream(kSetupUpdates, 0.0, seed++);
    benchmark::DoNotOptimize(stream.data());
  }
  state.SetItemsProcessed(state.iterations() * kSetupUpdates);
}
BENCHMARK(BM_SetupBernoulli)->Unit(benchmark::kMillisecond);

// The concurrent backends' shard step at k = 2: two exact-size shards,
// filled in one pass over a stream built once. At 16 MiB a shard may be
// served from heap pages an earlier iteration already faulted in.
void BM_SetupShard(benchmark::State& state) {
  const std::vector<double> stream =
      nmc::streams::BernoulliStream(kSetupUpdates, 0.0, 29);
  for (auto _ : state) {
    std::vector<std::vector<double>> shards =
        nmc::runtime::ShardRoundRobin(stream, 2);
    benchmark::DoNotOptimize(shards.data());
  }
  state.SetItemsProcessed(state.iterations() * kSetupUpdates);
}
BENCHMARK(BM_SetupShard)->Unit(benchmark::kMillisecond);

// Raw network send+deliver cycle with a trivial echo protocol: isolates
// the per-message Network overhead (accounting and send-time dispatch on
// the perfect channel) from the counter logic above.
void BM_NetworkPump(benchmark::State& state) {
  class NullCoordinator : public nmc::sim::CoordinatorNode {
   public:
    void OnSiteMessage(int, const nmc::sim::Message&) override {}
  };
  class NullSite : public nmc::sim::SiteNode {
   public:
    void OnCoordinatorMessage(const nmc::sim::Message&) override {}
  };
  const int k = 8;
  nmc::sim::Network network(k);
  NullCoordinator coordinator;
  std::vector<NullSite> sites(k);
  network.AttachCoordinator(&coordinator);
  for (int s = 0; s < k; ++s) network.AttachSite(s, &sites[s]);
  nmc::sim::Message m;
  m.type = 3;
  int site = 0;
  for (auto _ : state) {
    network.SendToCoordinator(site, m);
    network.SendToSite(site, m);
    network.DeliverAll();
    site = (site + 1) % k;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_NetworkPump);

void BM_RngU64(benchmark::State& state) {
  // nmc-lint: allow(NO_UNSEEDED_RNG) fixed seed; measures throughput only.
  nmc::common::Rng rng(5);
  for (auto _ : state) benchmark::DoNotOptimize(rng.NextU64());
}
BENCHMARK(BM_RngU64);

void BM_Fft(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::complex<double>> data(n);
  // nmc-lint: allow(NO_UNSEEDED_RNG) fixed seed keeps the FFT input stable across runs so timings are comparable
  nmc::common::Rng rng(7);
  for (auto& x : data) x = {rng.Gaussian(), rng.Gaussian()};
  for (auto _ : state) {
    auto copy = data;
    nmc::streams::Fft(&copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(1 << 10)->Arg(1 << 14);

void BM_FgnDaviesHarte(benchmark::State& state) {
  const int64_t n = state.range(0);
  uint64_t seed = 9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nmc::streams::FgnDaviesHarte(n, 0.75, seed++));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FgnDaviesHarte)->Arg(1 << 12)->Arg(1 << 16);

void BM_KWiseHash(benchmark::State& state) {
  nmc::sketch::KWiseHash hash(4, 11);
  uint64_t x = 0;
  for (auto _ : state) benchmark::DoNotOptimize(hash.Hash(++x));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KWiseHash);

void BM_AmsUpdate(benchmark::State& state) {
  nmc::sketch::AmsSketch sketch(5, 256, 13);
  uint64_t item = 0;
  for (auto _ : state) {
    sketch.Update(++item % 4096, 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AmsUpdate);

}  // namespace

/// Custom main instead of BENCHMARK_MAIN: peels off the repo's shared
/// bench flags (declared once in bench_json.cc's flag table) before
/// handing the rest to google-benchmark, so run_benches.sh and the CI
/// bench-smoke job can drive every bench binary with one flag vocabulary.
/// Unknown flags exit 2, matching the InitBench-based binaries (and the
/// rejects-unknown-flag smoke test).
int main(int argc, char** argv) {
  nmc::bench::BenchFlagValues values;
  std::vector<std::string> rest;
  nmc::bench::PeelBenchFlags(argc, argv, "bench_micro", &values, &rest);

  std::vector<std::string> args;
  args.reserve(rest.size() + 3);
  args.push_back(argv[0]);
  if (!values.json_out.empty()) {
    args.push_back("--benchmark_out=" + values.json_out);
    args.push_back("--benchmark_out_format=json");
  }
  for (std::string& token : rest) args.push_back(std::move(token));
  std::vector<char*> argv_out;
  argv_out.reserve(args.size());
  for (std::string& s : args) argv_out.push_back(s.data());
  int argc_out = static_cast<int>(argv_out.size());
  benchmark::Initialize(&argc_out, argv_out.data());
  if (benchmark::ReportUnrecognizedArguments(argc_out, argv_out.data())) {
    return 2;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
