// Runtime counters for the hot-path rules. Two counters are compiled into
// this binary, and both count what actually runs, across everything the
// per-update entry points transitively touch:
//
//   * Heap allocations. Every global operator new form is replaced below
//     and bumps one counter. "No heap on the hot path" means zero
//     allocations after warm-up.
//   * libm calls. log, log1p, log2, exp, expm1, exp2 and pow are defined
//     below as counting wrappers that forward to libm through
//     dlsym(RTLD_NEXT, ...). The library's call sites bind to them at link
//     time. Eq. (1)'s rate is paid once per sync, not once per update, so
//     "no per-update transcendentals" means the calls grow with messages,
//     not with updates: calls <= kLibmPerMessage * messages + kLibmPerRun.
//     The canary test proves the wrappers bind (a build with a static
//     libm, LTO or vector libm calls would read 0 and pass vacuously).
//
// Runs that can only be measured whole (sim::RunTracking, RunThreaded,
// RunSockets) are counted at two lengths, n and 2n, on the same protocol
// seed, psi seed, horizon and stream prefix. The n-update run is then an
// exact prefix of the 2n-update one, so the difference of the two counts
// is what the second half alone allocated: the steady-state cost. Its
// bound is 0. A container that doubles as it grows reallocates at least
// once in any [L/2, L) stretch, so even amortized growth shows.

#include <dlfcn.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/horizon_free.h"
#include "core/nonmonotonic_counter.h"
#include "core/sampling.h"
#include "registry/builtin.h"
#include "runtime/sockets.h"
#include "runtime/threaded.h"
#include "runtime/transport.h"
#include "sim/assignment.h"
#include "sim/channel.h"
#include "sim/harness.h"
#include "sim/registry.h"
#include "sim/reliable.h"
#include "streams/bernoulli.h"

namespace {

/// Allocation and libm-call counters. Relaxed atomics: the threads
/// backend's site and pool threads allocate too, and the counts are read
/// only after those threads have joined.
std::atomic<int64_t> g_allocations{0};

enum LibmFunction {
  kLog, kLog1p, kLog2, kExp, kExpm1, kExp2, kPow, kLibmCount
};
std::array<std::atomic<int64_t>, kLibmCount> g_libm_calls{};

int64_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }

int64_t LibmCalls(LibmFunction fn) {
  return g_libm_calls[fn].load(std::memory_order_relaxed);
}

int64_t LibmCalls() {
  int64_t total = 0;
  for (int fn = 0; fn < kLibmCount; ++fn) {
    total += LibmCalls(static_cast<LibmFunction>(fn));
  }
  return total;
}

void* CountedAlloc(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const size_t alignment = static_cast<size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const size_t rounded = (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

/// Out of line: inlined into a std::allocator deallocation, a bare free()
/// after the replaced operator new trips -Wmismatched-new-delete.
[[gnu::noinline]] void Release(void* p) noexcept { std::free(p); }

/// Counts one call of `kFn` and forwards it to libm's definition, which
/// dlsym(RTLD_NEXT, ...) finds behind this binary's. Resolved on first use.
template <LibmFunction kFn, typename... Args>
double CountedLibm(const char* name, Args... args) {
  using Fn = double (*)(Args...);
  static const Fn real = [name] {
    void* symbol = dlsym(RTLD_NEXT, name);
    if (symbol == nullptr) std::abort();
    return reinterpret_cast<Fn>(symbol);
  }();
  g_libm_calls[kFn].fetch_add(1, std::memory_order_relaxed);
  return real(args...);
}

}  // namespace

// Every allocation form goes through CountedAlloc / CountedAlignedAlloc and
// every deallocation form through Release (free), so the pairing stays
// consistent under the sanitizers' allocation-mismatch checks (their
// runtimes define each form, so none is left to the library).
void* operator new(size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new(size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, size_t) noexcept { Release(p); }
void operator delete[](void* p, size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  Release(p);
}

extern "C" {
double log(double x) noexcept { return CountedLibm<kLog>("log", x); }
double log1p(double x) noexcept { return CountedLibm<kLog1p>("log1p", x); }
double log2(double x) noexcept { return CountedLibm<kLog2>("log2", x); }
double exp(double x) noexcept { return CountedLibm<kExp>("exp", x); }
double expm1(double x) noexcept { return CountedLibm<kExpm1>("expm1", x); }
double exp2(double x) noexcept { return CountedLibm<kExp2>("exp2", x); }
double pow(double x, double y) noexcept {
  return CountedLibm<kPow>("pow", x, y);
}
}  // extern "C"

namespace nmc {
namespace {

/// Every psi the sim pump can run (sim::MakeAssignment's names).
constexpr const char* kAllPsi[] = {"round_robin", "random",
                                   "single",      "block",
                                   "sign_split",  "zero_crossing"};

/// libm budget of one run: at most one call per message, plus a constant
/// for run set-up (the horizon's log, a phase switch). A per-update call
/// reads about 1 per update, far above the messages of a quiet run.
constexpr double kLibmPerMessage = 1.0;
constexpr int64_t kLibmPerRun = 64;

template <typename Fn>
int64_t AllocationsIn(Fn&& fn) {
  const int64_t before = Allocations();
  fn();
  return Allocations() - before;
}

sim::ProtocolParams Params(int64_t horizon_n, uint64_t seed) {
  sim::ProtocolParams params;
  params.epsilon = 0.1;
  params.horizon_n = horizon_n;
  params.seed = seed;
  return params;
}

/// A stream the protocol accepts: all +1 for the monotonic counters,
/// otherwise a ±1 walk with drift mu.
std::vector<double> StreamFor(const std::string& name, int64_t n, double mu,
                              uint64_t seed) {
  if (sim::ProtocolRegistry::Global().Traits(name)->monotonic_only) {
    return std::vector<double>(static_cast<size_t>(n), 1.0);
  }
  return streams::BernoulliStream(n, mu, seed);
}

using ProtocolFactory = std::function<std::unique_ptr<sim::Protocol>()>;

/// Allocations a 2n-update RunTracking makes in its second half: the
/// whole-run counts at n and 2n updates, subtracted. `make_protocol` and
/// `psi_name` must build the same protocol and psi each call, so the
/// n-update run is a prefix of the 2n-update one (a recorded curve keeps
/// a different stride at each length, but reserves its points up front
/// either way). Protocol and psi are built outside the counted region.
int64_t SecondHalfAllocations(const ProtocolFactory& make_protocol,
                              const std::string& psi_name, int num_sites,
                              const std::vector<double>& stream,
                              int curve_points = 0) {
  const std::vector<double> prefix(stream.begin(),
                                   stream.begin() + static_cast<std::ptrdiff_t>(
                                                        stream.size() / 2));
  sim::TrackingOptions options;
  options.epsilon = 0.1;
  options.curve_points = curve_points;
  int64_t counts[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    const std::unique_ptr<sim::Protocol> protocol = make_protocol();
    const std::unique_ptr<sim::AssignmentPolicy> psi =
        sim::MakeAssignment(psi_name, num_sites, 17);
    const std::vector<double>& input = run == 0 ? prefix : stream;
    counts[run] = AllocationsIn([&] {
      sim::RunTracking(input, psi.get(), protocol.get(), options);
    });
  }
  return counts[1] - counts[0];
}

// ---- the counter's per-update entry point ------------------------------

/// One pumped update, exactly as the harness issues it for a single-site
/// zero-drift run (batching and curve recording change nothing about the
/// allocation profile — they only group calls).
void Pump(core::NonMonotonicCounter* counter, const std::vector<double>& s,
          int64_t t) {
  counter->ProcessUpdate(0, s[static_cast<size_t>(t) % s.size()]);
}

TEST(SteadyStateAllocTest, CounterPumpIsAllocationFreeAfterWarmup) {
  const int64_t n = 1 << 20;  // horizon sized so Phase 2 stays off
  const auto stream = streams::BernoulliStream(1 << 16, 0.0, 21);
  core::CounterOptions options;
  options.epsilon = 0.25;
  options.horizon_n = n;
  options.seed = 11;
  core::NonMonotonicCounter counter(1, options);

  // Warm-up: message queues at peak capacity, sampler feeds primed.
  for (int64_t t = 0; t < (1 << 14); ++t) Pump(&counter, stream, t);

  const int64_t allocations = AllocationsIn([&] {
    for (int64_t t = 1 << 14; t < (1 << 14) + 100000; ++t) {
      Pump(&counter, stream, t);
    }
  });
  EXPECT_EQ(allocations, 0)
      << allocations << " heap allocations across 100k steady-state "
      << "updates; the hot path must not touch the allocator";
  // The counter still works after being spied on.
  EXPECT_GE(counter.Estimate(), -static_cast<double>(n));
}

TEST(SteadyStateAllocTest, MultiSitePumpIsAllocationFreeAfterWarmup) {
  const int64_t n = 1 << 20;
  const int k = 8;
  const auto stream = streams::BernoulliStream(1 << 16, 0.0, 33);
  core::CounterOptions options;
  options.epsilon = 0.25;
  options.horizon_n = n;
  options.seed = 13;
  core::NonMonotonicCounter counter(k, options);
  sim::RoundRobinAssignment psi(k);

  for (int64_t t = 0; t < (1 << 14); ++t) {
    const double v = stream[static_cast<size_t>(t) % stream.size()];
    counter.ProcessUpdate(psi.NextSite(t, v), v);
  }
  const int64_t allocations = AllocationsIn([&] {
    for (int64_t t = 1 << 14; t < (1 << 14) + 100000; ++t) {
      const double v = stream[static_cast<size_t>(t) % stream.size()];
      counter.ProcessUpdate(psi.NextSite(t, v), v);
    }
  });
  EXPECT_EQ(allocations, 0);
}

// ---- every protocol, every psi, through the sim pump --------------------

// k = 1 takes the single-site paths (Theorem 3.1's counter), k = 8 the
// coordinator's. horizon_free restarts its epochs inside any window of
// this size and has its own test below.
TEST(SteadyStateAllocTest, EveryProtocolAndPsiPumpIsAllocationFree) {
  registry::RegisterBuiltinProtocols();
  const sim::ProtocolRegistry& registry = sim::ProtocolRegistry::Global();
  const int64_t n = 1 << 16;
  for (const std::string& name : registry.Names()) {
    if (name == "horizon_free") continue;
    const std::vector<double> stream = StreamFor(name, 2 * n, 0.0, 29);
    for (const int k : {1, 8}) {
      for (const char* psi_name : kAllPsi) {
        SCOPED_TRACE(name + " at k = " + std::to_string(k) + " under " +
                     psi_name);
        const ProtocolFactory make = [&] {
          return registry.Create(name, k, Params(2 * n, 5));
        };
        EXPECT_EQ(SecondHalfAllocations(make, psi_name, k, stream), 0);
      }
    }
  }
}

// Every fault model, under the resync wrapper that a faulty channel
// needs: the network's delayed queue, the channels' adjudication and the
// resync rounds (and the probes they send) run in the counted half.
TEST(SteadyStateAllocTest, EveryFaultyChannelIsAllocationFree) {
  registry::RegisterBuiltinProtocols();
  const sim::ProtocolRegistry& registry = sim::ProtocolRegistry::Global();
  const int k = 8;
  const int64_t n = 1 << 16;
  std::vector<sim::ChannelConfig> channels(3);
  channels[0].kind = sim::ChannelConfig::Kind::kLoss;
  channels[0].loss = 0.05;
  channels[1].kind = sim::ChannelConfig::Kind::kDelay;
  channels[1].delay_probability = 0.1;
  channels[2].kind = sim::ChannelConfig::Kind::kCrash;
  for (int site = 0; site < k; ++site) {  // one outage per site per half
    for (const int64_t start : {n / 4, n + n / 4}) {
      const int64_t down = start + 512 * site;
      channels[2].crashes.push_back(sim::CrashInterval{site, down, down + 256});
    }
  }
  for (const std::string& name : registry.Names()) {
    // horizon_free's restart snapshot needs the perfect channel.
    if (name == "horizon_free") continue;
    const std::vector<double> stream = StreamFor(name, 2 * n, 0.0, 31);
    for (const sim::ChannelConfig& channel : channels) {
      SCOPED_TRACE(name + " on channel kind " +
                   std::to_string(static_cast<int>(channel.kind)));
      const ProtocolFactory make = [&] {
        sim::ProtocolParams params = Params(2 * n, 7);
        params.channel = channel;
        params.channel.seed = 9;
        return std::make_unique<sim::ReliableProtocol>(
            registry.Create(name, k, params));
      };
      EXPECT_EQ(SecondHalfAllocations(make, "block", k, stream), 0);
    }
  }
}

// counter_drift switches to Phase 2 (the HYZ pair) once GPSearch locks on
// the drift; the switch allocates the pair once, in the first half.
TEST(SteadyStateAllocTest, PhaseTwoIsAllocationFreeAfterItsSwitch) {
  registry::RegisterBuiltinProtocols();
  const sim::ProtocolRegistry& registry = sim::ProtocolRegistry::Global();
  const int k = 8;
  const int64_t n = 1 << 16;
  const std::vector<double> stream = streams::BernoulliStream(2 * n, 0.5, 71);
  const ProtocolFactory make = [&] {
    return registry.Create("counter_drift", k, Params(2 * n, 73));
  };
  {
    const std::unique_ptr<sim::Protocol> protocol = make();
    sim::RoundRobinAssignment psi(k);
    const std::vector<double> prefix(stream.begin(), stream.begin() + n);
    sim::RunTracking(prefix, &psi, protocol.get(), sim::TrackingOptions());
    const core::CounterDiagnostics d =
        dynamic_cast<core::NonMonotonicCounter&>(*protocol).diagnostics();
    ASSERT_TRUE(d.phase2_active) << "Phase 2 must switch in the first half";
  }
  for (const char* psi_name : {"round_robin", "block"}) {
    SCOPED_TRACE(psi_name);
    EXPECT_EQ(SecondHalfAllocations(make, psi_name, k, stream), 0);
  }
}

// The curve recorder reserves its points up front.
TEST(SteadyStateAllocTest, CurveRecordingIsAllocationFree) {
  registry::RegisterBuiltinProtocols();
  const int k = 8;
  const int64_t n = 1 << 16;
  const std::vector<double> stream = streams::BernoulliStream(2 * n, 0.0, 79);
  const ProtocolFactory make = [&] {
    return sim::ProtocolRegistry::Global().Create("counter", k,
                                                  Params(2 * n, 83));
  };
  EXPECT_EQ(SecondHalfAllocations(make, "block", k, stream,
                                  /*curve_points=*/256),
            0);
}

// Each epoch restart builds a fresh counter, whose queues then warm up
// again, so allocations are charged to epochs: at most kPerRestart per
// epoch, whatever its length, and none in the second half of any epoch
// long enough to be past its warm-up.
TEST(SteadyStateAllocTest, HorizonFreeAllocatesOnlyAtEpochRestarts) {
  const int k = 8;
  const int64_t n = 1 << 19;
  const int64_t kPerRestart = 64 + 8 * k;
  const int64_t kWarmEpoch = 1 << 14;
  core::HorizonFreeOptions options;
  options.counter.epsilon = 0.1;
  options.counter.seed = 3;
  options.initial_horizon = 512;
  core::HorizonFreeCounter counter(k, options);
  const std::vector<double> stream = streams::BernoulliStream(n, 0.0, 37);

  struct Epoch {
    int64_t begin = 0;
    int64_t allocations = 0;
    int64_t last_allocating_update = -1;
  };
  std::vector<Epoch> epochs(1);
  epochs.reserve(32);
  for (int64_t t = 0; t < n; ++t) {
    const int64_t epoch_before = counter.epochs();
    const int64_t before = Allocations();
    counter.ProcessUpdate(static_cast<int>(t % k),
                          stream[static_cast<size_t>(t)]);
    const int64_t allocations = Allocations() - before;
    if (counter.epochs() != epoch_before) epochs.push_back(Epoch{t, 0, -1});
    if (allocations > 0) {
      epochs.back().allocations += allocations;
      epochs.back().last_allocating_update = t;
    }
  }
  ASSERT_GE(epochs.size(), 5u);
  for (size_t e = 0; e < epochs.size(); ++e) {
    const Epoch& epoch = epochs[e];
    const int64_t end = e + 1 < epochs.size() ? epochs[e + 1].begin : n;
    SCOPED_TRACE("epoch " + std::to_string(e) + " [" +
                 std::to_string(epoch.begin) + ", " + std::to_string(end) +
                 ")");
    EXPECT_LE(epoch.allocations, kPerRestart);
    if (end - epoch.begin < kWarmEpoch) continue;
    EXPECT_LT(epoch.last_allocating_update,
              epoch.begin + (end - epoch.begin) / 2);
  }
}

// ---- the concurrent coordinators' steady state --------------------------

/// Per-site shards of `turns` full turns each, cut from one stream, so a
/// run over the first half of every shard is a prefix of the run over all
/// of it.
std::vector<std::vector<double>> TurnShards(int num_sites, int64_t turns,
                                            uint64_t seed) {
  const int64_t per_site = turns * runtime::kTurnUpdates;
  const std::vector<double> stream =
      streams::BernoulliStream(per_site * num_sites, 0.0, seed);
  return runtime::ShardRoundRobin(stream, num_sites);
}

std::vector<std::vector<double>> FirstHalves(
    const std::vector<std::vector<double>>& shards) {
  std::vector<std::vector<double>> halves;
  for (const std::vector<double>& shard : shards) {
    halves.emplace_back(shard.begin(),
                        shard.begin() +
                            static_cast<std::ptrdiff_t>(shard.size() / 2));
  }
  return halves;
}

TEST(SteadyStateAllocTest, ThreadsCoordinatorIsAllocationFree) {
  registry::RegisterBuiltinProtocols();
  const int k = 3;
  const std::vector<std::vector<double>> shards = TurnShards(k, 16, 41);
  const std::vector<std::vector<double>> halves = FirstHalves(shards);
  const int64_t n = static_cast<int64_t>(shards[0].size()) * k;
  int64_t counts[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    const std::unique_ptr<sim::Protocol> protocol =
        sim::ProtocolRegistry::Global().Create("counter", k, Params(n, 43));
    const auto& input = run == 0 ? halves : shards;
    runtime::ThreadedRunOptions options;  // no readers, capture off
    int64_t updates = 0;
    counts[run] = AllocationsIn([&] {
      updates = runtime::RunThreaded(protocol.get(), input, options).updates;
    });
    EXPECT_EQ(updates, (run + 1) * n / 2);
  }
  EXPECT_EQ(counts[1] - counts[0], 0)
      << counts[0] << " allocations at n/2, " << counts[1] << " at n";
}

TEST(SteadyStateAllocTest, SocketsCoordinatorIsAllocationFree) {
  registry::RegisterBuiltinProtocols();
  const int k = 2;
  const std::vector<std::vector<double>> shards = TurnShards(k, 16, 47);
  const std::vector<std::vector<double>> halves = FirstHalves(shards);
  const int64_t n = static_cast<int64_t>(shards[0].size()) * k;
  int64_t counts[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    const std::unique_ptr<sim::Protocol> protocol =
        sim::ProtocolRegistry::Global().Create("counter", k, Params(n, 53));
    const auto& input = run == 0 ? halves : shards;
    runtime::SocketRunOptions options;  // no readers, capture off
    int64_t updates = 0;
    bool timed_out = false;
    counts[run] = AllocationsIn([&] {
      const runtime::SocketRunResult result =
          runtime::RunSockets(protocol.get(), input, options);
      updates = result.serving.updates;
      timed_out = result.stats.timed_out;
    });
    EXPECT_EQ(updates, (run + 1) * n / 2);
    EXPECT_FALSE(timed_out);
  }
  EXPECT_EQ(counts[1] - counts[0], 0)
      << counts[0] << " allocations at n/2, " << counts[1] << " at n";
}

// ---- libm calls ---------------------------------------------------------

// The canary: library call sites known to reach libm must be counted, or
// every libm bound below would pass vacuously.
TEST(LibmCallCounterTest, CountsTheLibraryCallsItInterposes) {
  const int64_t pow_before = LibmCalls(kPow);
  // A rate recomputation (core/sampling.cc, compiled into the library).
  volatile double estimate = 1000.0;
  EXPECT_GT(core::FbmRate(estimate, 0.1, 4096, 1.5, 1.0), 0.0);
  EXPECT_GT(LibmCalls(kPow), pow_before);

  // A fresh horizon: the rate laws take its log and a power of that.
  const int64_t log_before = LibmCalls(kLog);
  EXPECT_GT(core::RandomWalkRate(estimate, 0.1, 12345, 2.0, 2.0), 0.0);
  EXPECT_GT(LibmCalls(kLog), log_before);

  // Skip-sampler redraws at a new rate: the 1/log1p(-p) memo misses.
  const int64_t log1p_before = LibmCalls(kLog1p);
  core::CounterOptions options;
  options.epsilon = 0.1;
  options.horizon_n = 1 << 16;
  options.seed = 19;
  core::NonMonotonicCounter counter(4, options);
  const std::vector<double> stream = streams::BernoulliStream(1 << 14, 0.2, 23);
  sim::RoundRobinAssignment psi(4);
  sim::RunTracking(stream, &psi, &counter, sim::TrackingOptions());
  EXPECT_GT(counter.stats().total(), 0);
  EXPECT_GT(LibmCalls(kLog1p), log1p_before);
}

// The quiet regime (mu = 0.02, 64-update blocks per site): about 0.03
// messages per update for the counter. At batch size 1 the pump makes one
// protocol call per update, so a transcendental anywhere on the per-chunk
// path becomes a per-update one too.
TEST(LibmCallCounterTest, EveryProtocolPaysLibmPerMessageNotPerUpdate) {
  registry::RegisterBuiltinProtocols();
  const sim::ProtocolRegistry& registry = sim::ProtocolRegistry::Global();
  const int64_t n = 1 << 18;
  for (const std::string& name : registry.Names()) {
    const std::vector<double> stream = StreamFor(name, n, 0.02, 59);
    for (const int k : {1, 8}) {
      for (const int batch_size : {1, 256}) {
        SCOPED_TRACE(name + " at k = " + std::to_string(k) +
                     ", batch size " + std::to_string(batch_size));
        const std::unique_ptr<sim::Protocol> protocol =
            registry.Create(name, k, Params(n, 61));
        sim::BlockCyclicAssignment psi(k, 64);
        sim::TrackingOptions options;
        options.epsilon = 0.1;
        options.batch_size = batch_size;
        const int64_t before = LibmCalls();
        const sim::TrackingResult result =
            sim::RunTracking(stream, &psi, protocol.get(), options);
        const int64_t calls = LibmCalls() - before;
        EXPECT_LE(static_cast<double>(calls),
                  kLibmPerMessage * static_cast<double>(result.messages) +
                      static_cast<double>(kLibmPerRun))
            << calls << " libm calls for " << result.messages
            << " messages over " << n << " updates";
      }
    }
  }
}

}  // namespace
}  // namespace nmc
