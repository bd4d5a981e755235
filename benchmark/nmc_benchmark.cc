// nmc_benchmark: runs one nmcount workload in this process and prints
// one JSON object as its last stdout line (benchmark/run.py pools them).
//
//   nmc_benchmark --workload=NAME --seed=S [--seconds=T] [--log2_n=L]
//                 [--trace_out=PATH] [--verify]
//
// Default: kSetups timed set-ups (the inputs of the last are kept), one
// discarded warm-up rep, then timed reps until --seconds have passed (at
// least one). Every rep constructs a fresh protocol over the same inputs,
// so every rep does identical work; the library only ever sees the
// generated values. Each rep runs through runtime::RunWithTransport and is
// checked against the benchmark's own exact sums.
//
// --trace_out alternates untraced and traced reps (the protocol wrapped in
// TracedProtocol), reports per-layer numbers for the traced ones and
// writes the spans as Chrome trace-event JSON at exit.
//
// --verify runs one untimed capture pass of a concurrent workload through
// the outside checker (WalkCapture + runtime::CheckLinearizable), after a
// self-test that the checker flags a corrupted publish log.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/simd_dispatch.h"
#include "core/nonmonotonic_counter.h"
#include "registry/builtin.h"
#include "runtime/run.h"
#include "runtime/wire.h"
#include "sim/assignment.h"
#include "sim/registry.h"
#include "streams/bernoulli.h"

namespace nmc::benchmark {
namespace {

using Clock = std::chrono::steady_clock;
using runtime::TransportKind;

constexpr double kEpsilon = 0.1;
constexpr double kSlack = 1e-9;  // sim::TrackingOptions::absolute_slack
constexpr int64_t kPsiBlock = 64;  // sim_drift_block's block-cyclic psi

/// The message cost of a ±1 walk is dominated by how long its coarse path
/// stays near zero, which varies several-fold from one Bernoulli draw to
/// the next (measured: interquartile range 83% of the median over 12 seeds
/// on sim_zero_drift_rr). So every seed shares one Bernoulli(µ) draw, the
/// skeleton, and the seed shuffles each kShuffleBlock-long block of it.
/// Given its block sums, the order inside each block of an i.i.d. stream
/// is a uniform permutation, so every seed's stream is still exactly a
/// Bernoulli(µ) stream; seeds differ in every block but share the coarse
/// path, and with it the work a run does.
constexpr uint64_t kSkeletonSeed = 0x5EEDull;
constexpr size_t kShuffleBlock = 1024;
/// Timed set-ups per process: setup_s is a median over several, and the
/// reps reuse the last one's inputs, so most of a run is spent running.
constexpr int kSetups = 3;
/// Traced reps time every 64th protocol call: timing every call made
/// sim_zero_drift_rr 3.7x slower, which would distort the layer split.
constexpr int64_t kSampleEvery = 64;
/// Sampled core.process spans written per run span; all samples still
/// feed the statistics. Keeps a trace file openable in a browser.
constexpr size_t kMaxCoreSpansPerRun = 2000;

enum class Psi { kRoundRobin, kBlock };

struct Workload {
  const char* name;
  TransportKind transport;
  int sites;
  double mu;
  int log2_n;
  Psi psi;  // sim only; the concurrent backends shard round-robin
  int readers;
};

// Why these four, and what each one stresses: benchmark/README.md.
constexpr Workload kWorkloads[] = {
    {"sim_zero_drift_rr", TransportKind::kSim, 8, 0.0, 24, Psi::kRoundRobin, 0},
    {"sim_drift_block", TransportKind::kSim, 8, 0.02, 24, Psi::kBlock, 0},
    {"threads_zero_drift_read", TransportKind::kThreads, 2, 0.0, 24,
     Psi::kRoundRobin, 1},
    {"sockets_drift_read", TransportKind::kSockets, 2, 0.02, 22,
     Psi::kRoundRobin, 1},
};

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Threads (sim, threads) or threads plus site processes (sockets) that run
/// at once: sites + readers + the coordinator, which is the calling thread.
int Concurrency(const Workload& w) {
  return w.transport == TransportKind::kSim ? 1 : w.sites + w.readers + 1;
}

int OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

int64_t Nanos(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// This process plus its reaped children (the sockets site processes).
struct Usage {
  double cpu_s = 0.0;
  int64_t involuntary_switches = 0;
};

Usage ProcessUsage() {
  Usage usage;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    usage.cpu_s +=
        static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
    usage.involuntary_switches += ru.ru_nivcsw;
  }
  return usage;
}

double PeakRssMiB() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

// ---- JSON output -----------------------------------------------------------

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Flat JSON object builder; values keep all 17 significant digits.
class JsonObject {
 public:
  JsonObject& Num(std::string_view key, double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    return Raw(key, buffer);
  }
  JsonObject& Int(std::string_view key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Bool(std::string_view key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Str(std::string_view key, std::string_view value) {
    return Raw(key, JsonString(value));
  }
  JsonObject& Raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "" : ", ";
    body_ += JsonString(key);
    body_ += ": ";
    body_ += json;
    return *this;
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ", ") + items[i];
  }
  return out + "]";
}

// ---- Tracing ---------------------------------------------------------------

/// In-memory span recorder, written as Chrome trace-event JSON (open in
/// Perfetto or chrome://tracing). Spans nest by time on one track; `id`
/// and `parent` in each event's args give the causal tree.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int64_t Reserve() { return next_id_++; }

  void Add(int64_t id, const char* name, int64_t parent,
           Clock::time_point start, Clock::time_point end) {
    spans_.push_back(Span{id, parent, name, start, end});
  }

  /// Wall covered by top-level spans (parent 0); they never overlap.
  double TopLevelSeconds() const {
    double total = 0.0;
    for (const Span& span : spans_) {
      if (span.parent == 0) total += Seconds(span.start, span.end);
    }
    return total;
  }

  bool Write(const std::string& path, const std::string& other_data) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"displayTimeUnit\": \"ns\", \"otherData\": %s,\n",
                 other_data.c_str());
    std::fprintf(out, "\"traceEvents\": [");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(out,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %lld, \"parent\": %lld}}",
                   i == 0 ? "" : ",", span.name,
                   1e-3 * static_cast<double>(Nanos(origin_, span.start)),
                   1e-3 * static_cast<double>(Nanos(span.start, span.end)),
                   static_cast<long long>(span.id),
                   static_cast<long long>(span.parent));
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    int64_t id;
    int64_t parent;
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
  };

  Clock::time_point origin_;
  int64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Records a top-level span around a scope when a tracer is present.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), name_(name),
        id_(tracer != nullptr ? tracer->Reserve() : 0), start_(Clock::now()) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Add(id_, name_, 0, start_, Clock::now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }
  Clock::time_point start() const { return start_; }

 private:
  Tracer* tracer_;
  const char* name_;
  int64_t id_;
  Clock::time_point start_;
};

/// Forwards every call to the protocol under test, counting calls and
/// updates exactly and timing every kSampleEvery-th ProcessUpdate /
/// ProcessBatch with steady_clock. The only boundary into core/hyz the
/// benchmark can see from outside the library.
class TracedProtocol final : public sim::Protocol {
 public:
  struct Sample {
    Clock::time_point start;
    Clock::time_point end;
  };

  TracedProtocol(sim::Protocol* inner, int64_t max_calls) : inner_(inner) {
    samples_.reserve(static_cast<size_t>(max_calls / kSampleEvery + 1));
  }

  int num_sites() const override { return inner_->num_sites(); }

  void ProcessUpdate(int site_id, double value) override {
    ++updates_;
    if (++calls_ % kSampleEvery != 0) {
      inner_->ProcessUpdate(site_id, value);
      return;
    }
    const Clock::time_point start = Clock::now();
    inner_->ProcessUpdate(site_id, value);
    samples_.push_back(Sample{start, Clock::now()});
  }

  int64_t ProcessBatch(int site_id, std::span<const double> values) override {
    int64_t consumed = 0;
    if (++calls_ % kSampleEvery != 0) {
      consumed = inner_->ProcessBatch(site_id, values);
    } else {
      const Clock::time_point start = Clock::now();
      consumed = inner_->ProcessBatch(site_id, values);
      samples_.push_back(Sample{start, Clock::now()});
    }
    updates_ += consumed;
    return consumed;
  }

  double Estimate() const override { return inner_->Estimate(); }
  bool Resync() override { return inner_->Resync(); }
  const sim::MessageStats& stats() const override { return inner_->stats(); }

  int64_t calls() const { return calls_; }
  int64_t updates() const { return updates_; }
  const std::vector<Sample>& samples() const { return samples_; }

 private:
  sim::Protocol* inner_;
  int64_t calls_ = 0;
  int64_t updates_ = 0;
  std::vector<Sample> samples_;
};

/// Median cost of one steady_clock::now() pair, subtracted from every
/// sampled call so the busy estimate does not charge the clock to core.
int64_t ClockOverheadNanos() {
  std::vector<int64_t> pairs(2001);
  for (int64_t& pair : pairs) {
    const Clock::time_point a = Clock::now();
    pair = Nanos(a, Clock::now());
  }
  std::nth_element(pairs.begin(), pairs.begin() + 1000, pairs.end());
  return pairs[1000];
}

// ---- Inputs and runs -------------------------------------------------------

/// The generated values of one set-up; every rep of a process reuses them.
struct Inputs {
  std::vector<double> stream;               // sim workloads
  std::vector<std::vector<double>> shards;  // concurrent workloads
  /// The benchmark's own sum of everything generated (±1 values, so exact).
  double exact_sum = 0.0;
};

/// One timed set-up: the library's generate (streams), shard (runtime) and
/// construct (registry) steps.
struct SetupTimes {
  double generate_s = 0.0;
  double shard_s = 0.0;
  double construct_s = 0.0;

  double total() const { return generate_s + shard_s + construct_s; }
};

sim::ProtocolParams Params(int64_t n, uint64_t seed) {
  sim::ProtocolParams params;
  params.epsilon = kEpsilon;
  params.horizon_n = n;
  params.seed = seed ^ 0x9E3779B97F4A7C15ull;
  return params;
}

/// Shuffles every kShuffleBlock-long block of `stream` in place with a
/// generator seeded by `seed`.
void ShuffleBlocks(std::vector<double>* stream, uint64_t seed) {
  common::Rng rng(seed);
  for (size_t base = 0; base < stream->size(); base += kShuffleBlock) {
    const size_t len = std::min(kShuffleBlock, stream->size() - base);
    for (size_t i = len; i > 1; --i) {
      const size_t j =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*stream)[base + i - 1], (*stream)[base + j]);
    }
  }
}

/// Generates the ±1 stream (streams), shuffles it by the seed and shards
/// it for a concurrent backend (runtime). The benchmark's own shuffle is
/// not part of the set-up time.
Inputs Generate(const Workload& w, int64_t n, uint64_t seed, Tracer* tracer,
                SetupTimes* times) {
  Inputs in;
  {
    ScopedSpan span(tracer, "setup.generate");
    in.stream = streams::BernoulliStream(n, w.mu, kSkeletonSeed);
    times->generate_s = Seconds(span.start(), Clock::now());
  }
  {
    ScopedSpan span(tracer, "setup.shuffle");
    ShuffleBlocks(&in.stream, seed);
  }
  for (double x : in.stream) in.exact_sum += x;
  if (w.transport != TransportKind::kSim) {
    ScopedSpan span(tracer, "setup.shard");
    in.shards = runtime::ShardRoundRobin(in.stream, w.sites);
    in.stream = std::vector<double>();
    times->shard_s = Seconds(span.start(), Clock::now());
  }
  return in;
}

/// Constructs the protocol by name through the registry.
std::unique_ptr<sim::Protocol> Construct(const Workload& w, int64_t n,
                                         uint64_t seed, Tracer* tracer,
                                         double* seconds) {
  ScopedSpan span(tracer, "setup.construct");
  std::unique_ptr<sim::Protocol> protocol = runtime::CreateForTransport(
      w.transport, "counter", w.sites, Params(n, seed));
  *seconds = Seconds(span.start(), Clock::now());
  return protocol;
}

struct RunOutcome {
  runtime::RunResult result;
  double wall_s = 0.0;
  double thread_cpu_s = 0.0;
  Usage usage;  // deltas over the run
};

RunOutcome Run(const Workload& w, const Inputs& in, sim::Protocol* protocol,
               bool capture) {
  sim::RoundRobinAssignment round_robin(w.sites);
  sim::BlockCyclicAssignment block(w.sites, kPsiBlock);
  runtime::RunConfig config;
  config.protocol = protocol;
  if (w.transport == TransportKind::kSim) {
    config.stream = &in.stream;
    config.psi = w.psi == Psi::kBlock
                     ? static_cast<sim::AssignmentPolicy*>(&block)
                     : &round_robin;
  } else {
    config.shards = in.shards;
  }
  config.tracking.epsilon = kEpsilon;
  config.threaded.num_readers = w.readers;
  config.threaded.capture = capture;
  config.sockets.num_readers = w.readers;
  config.sockets.capture = capture;
  config.sockets.epsilon = kEpsilon;

  RunOutcome out;
  const Usage before = ProcessUsage();
  const double cpu_before = ThreadCpuSeconds();
  const Clock::time_point start = Clock::now();
  out.result = runtime::RunWithTransport(w.transport, config);
  out.wall_s = Seconds(start, Clock::now());
  out.thread_cpu_s = ThreadCpuSeconds() - cpu_before;
  const Usage after = ProcessUsage();
  out.usage.cpu_s = after.cpu_s - before.cpu_s;
  out.usage.involuntary_switches =
      after.involuntary_switches - before.involuntary_switches;
  return out;
}

bool WithinEpsilon(double estimate, double sum) {
  return std::fabs(estimate - sum) <= kEpsilon * std::fabs(sum) + kSlack;
}

/// Per-rep outside check. Returns the failed updates (ε-violating steps the
/// run reports plus updates never consumed); anything else wrong with the
/// result goes to *errors.
int64_t CheckRun(const Workload& w, const Inputs& in, int64_t n,
                 const runtime::RunResult& r,
                 std::vector<std::string>* errors) {
  if (w.transport == TransportKind::kSim) {
    const sim::TrackingResult& t = r.tracking;
    if (t.final_sum != in.exact_sum) {
      errors->push_back("sim final sum differs from the generated stream");
    }
    return t.violation_steps + (n - t.n);
  }
  const runtime::ThreadedRunResult& s = r.serving;
  int64_t failed = n - s.updates;
  if (s.final_published.generation != s.updates) {
    errors->push_back("final published generation != updates consumed");
  }
  if (!WithinEpsilon(s.final_published.estimate, in.exact_sum)) ++failed;
  if (s.generation_regressions != 0) {
    errors->push_back("a reader saw the published generation regress");
  }
  if (w.transport == TransportKind::kSockets) {
    const runtime::SocketStats& k = r.sockets;
    failed += k.violation_steps + k.updates_lost;
    if (k.unexpected_exits != 0) errors->push_back("a site process died");
    if (k.timed_out) errors->push_back("sockets run timed out");
  }
  return failed;
}

/// Bytes per update of the units the transport moves between sites and
/// coordinator, each priced as one wire frame (runtime/wire.h): protocol
/// messages on sim, raw-update ring slots plus echoes on threads, decoded
/// frames on sockets (where it is exactly the bytes read).
double TransportUnits(const Workload& w, const runtime::RunResult& r,
                      const sim::MessageStats& stats) {
  switch (w.transport) {
    case TransportKind::kSim:
      return static_cast<double>(stats.total());
    case TransportKind::kThreads:
      return static_cast<double>(r.serving.updates + r.serving.echoes_sent);
    case TransportKind::kSockets:
      return static_cast<double>(r.sockets.frames);
  }
  return 0.0;
}

/// Encodes and reassembles `frames` update frames through runtime::wire and
/// checks every decoded frame; ns per frame. A codec error goes to *errors.
double WireCodecNanosPerFrame(int64_t frames, std::span<const double> values,
                              std::vector<std::string>* errors) {
  constexpr int64_t kChunk = 1024;
  constexpr size_t kBytes = runtime::wire::kFrameBytes;
  std::vector<uint8_t> buffer(static_cast<size_t>(kChunk) * kBytes);
  runtime::wire::FrameReassembler reassembler;
  const Clock::time_point start = Clock::now();
  for (int64_t base = 0; base < frames; base += kChunk) {
    const int64_t count = std::min(kChunk, frames - base);
    for (int64_t i = 0; i < count; ++i) {
      sim::Message message;
      message.type = 2;  // kUpdate
      message.a = values[static_cast<size_t>(base + i) % values.size()];
      message.u = base + i;
      uint8_t* frame = buffer.data() + static_cast<size_t>(i) * kBytes;
      runtime::wire::EncodeFrame(message, frame);
    }
    reassembler.Feed(std::span<const uint8_t>(
        buffer.data(), static_cast<size_t>(count) * kBytes));
    sim::Message decoded;
    for (int64_t i = 0; i < count; ++i) {
      if (reassembler.Next(&decoded) != runtime::wire::DecodeStatus::kOk ||
          decoded.u != base + i) {
        errors->push_back("wire codec did not round-trip a frame");
        return 0.0;
      }
    }
  }
  return frames > 0 ? static_cast<double>(Nanos(start, Clock::now())) /
                          static_cast<double>(frames)
                    : 0.0;
}

// ---- Outside checker for captured concurrent runs --------------------------

struct WalkResult {
  int64_t steps = 0;
  int64_t violations = 0;
  int64_t lost = 0;
  std::string error;
};

/// Replays a captured run against the benchmark's own shards: the transcript
/// must be an interleaving of exactly the shards (per-site order, bit-equal
/// values), and at every consumed step t the estimate then being served —
/// the last publish with generation <= t, which ProcessBatch's guarantee
/// makes the protocol's estimate at t — must be within ε of the exact
/// prefix sum.
WalkResult WalkCapture(const std::vector<std::vector<double>>& shards,
                       const std::vector<runtime::TranscriptEntry>& transcript,
                       const std::vector<runtime::PublishedEstimate>& log) {
  WalkResult out;
  if (log.empty() || log.front().generation != 0) {
    out.error = "publish log does not start at generation 0";
    return out;
  }
  std::vector<size_t> cursor(shards.size(), 0);
  size_t next = 1;
  double estimate = log.front().estimate;
  double sum = 0.0;
  if (!WithinEpsilon(estimate, sum)) ++out.violations;
  for (const runtime::TranscriptEntry& entry : transcript) {
    if (entry.site < 0 || entry.site >= static_cast<int64_t>(shards.size())) {
      out.error = "transcript names a site out of range";
      return out;
    }
    const std::vector<double>& shard = shards[static_cast<size_t>(entry.site)];
    size_t& at = cursor[static_cast<size_t>(entry.site)];
    if (at >= shard.size() || std::bit_cast<uint64_t>(shard[at]) !=
                                  std::bit_cast<uint64_t>(entry.value)) {
      out.error = "transcript is not an interleaving of the generated shards";
      return out;
    }
    ++at;
    ++out.steps;
    sum += entry.value;
    for (; next < log.size() && log[next].generation <= out.steps; ++next) {
      if (log[next].generation <= log[next - 1].generation) {
        out.error = "publish generations do not increase";
        return out;
      }
      estimate = log[next].estimate;
    }
    if (!WithinEpsilon(estimate, sum)) ++out.violations;
  }
  if (next != log.size()) {
    out.error = "publishes beyond the consumed transcript";
  }
  for (size_t s = 0; s < shards.size(); ++s) {
    out.lost += static_cast<int64_t>(shards[s].size() - cursor[s]);
  }
  return out;
}

/// The checker must flag a publish log whose estimate was pushed outside ε
/// mid-run; returns false when it does not (or the clean log fails).
bool SelfTestCatchesCorruptLog(uint64_t seed) {
  const Workload w{"self_test", TransportKind::kThreads, 2, 0.0, 14,
                   Psi::kRoundRobin, 0};
  const int64_t n = int64_t{1} << w.log2_n;
  SetupTimes times;
  const Inputs in = Generate(w, n, seed, nullptr, &times);
  const std::unique_ptr<sim::Protocol> protocol =
      Construct(w, n, seed, nullptr, &times.construct_s);
  const RunOutcome run = Run(w, in, protocol.get(), /*capture=*/true);
  const runtime::ThreadedRunResult& serving = run.result.serving;
  const WalkResult clean = WalkCapture(in.shards, serving.transcript,
                                       serving.publish_log);
  if (!clean.error.empty() || clean.violations != 0 || clean.lost != 0 ||
      serving.publish_log.size() < 3) {
    return false;
  }
  std::vector<runtime::PublishedEstimate> corrupt = serving.publish_log;
  corrupt[corrupt.size() / 2].estimate += 1e6;
  const WalkResult flagged =
      WalkCapture(in.shards, serving.transcript, corrupt);
  return flagged.error.empty() && flagged.violations > 0;
}

// ---- Reps ------------------------------------------------------------------

struct Session {
  const Workload* workload = nullptr;
  int64_t n = 0;
  uint64_t seed = 0;
  Tracer* tracer = nullptr;
  int64_t clock_overhead_ns = 0;
  Inputs inputs;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
};

/// Per-layer numbers of one traced rep (metric names as in BENCHMARK.json
/// and benchmark/README.md); the set-up layers come from the process's
/// set-ups instead.
std::string LayerMetrics(Session* session, const sim::Protocol& protocol,
                         const RunOutcome& run, const TracedProtocol& traced,
                         int64_t run_span) {
  const Workload& w = *session->workload;
  const double mupdates = static_cast<double>(session->n) / 1e6;
  const double updates = static_cast<double>(session->n);

  std::vector<int64_t> durations;
  durations.reserve(traced.samples().size());
  for (size_t i = 0; i < traced.samples().size(); ++i) {
    const TracedProtocol::Sample& sample = traced.samples()[i];
    durations.push_back(std::max<int64_t>(
        0, Nanos(sample.start, sample.end) - session->clock_overhead_ns));
    if (session->tracer != nullptr && i < kMaxCoreSpansPerRun) {
      session->tracer->Add(session->tracer->Reserve(), "core.process", run_span,
                          sample.start, sample.end);
    }
  }
  double sampled_ns = 0.0;
  for (int64_t d : durations) sampled_ns += static_cast<double>(d);
  const double busy_s =
      durations.empty()
          ? 0.0
          : 1e-9 * sampled_ns / static_cast<double>(durations.size()) *
                static_cast<double>(traced.calls());
  std::sort(durations.begin(), durations.end());
  const auto percentile = [&](double q) {
    if (durations.empty()) return 0.0;
    const size_t at =
        static_cast<size_t>(q * static_cast<double>(durations.size() - 1));
    return static_cast<double>(durations[at]);
  };

  const sim::MessageStats& stats = traced.stats();
  core::CounterDiagnostics diagnostics;
  if (const auto* counter =
          dynamic_cast<const core::NonMonotonicCounter*>(&protocol)) {
    diagnostics = counter->diagnostics();
  }
  const Inputs& in = session->inputs;
  const runtime::ThreadedRunResult& serving = run.result.serving;
  const runtime::SocketStats& sockets = run.result.sockets;
  const bool concurrent = w.transport != TransportKind::kSim;
  const int64_t echoes_back = w.transport == TransportKind::kSockets
                                  ? sockets.echoes_acked
                                  : serving.echoes_received;
  const double self_s = run.wall_s - busy_s;
  const int64_t attempts = serving.total_reads + serving.torn_reads;
  const int64_t units =
      static_cast<int64_t>(TransportUnits(w, run.result, stats));
  const std::span<const double> values =
      concurrent ? std::span<const double>(in.shards.front())
                 : std::span<const double>(in.stream);

  JsonObject m;
  m.Num("core.busy_s_per_mupdate", busy_s / mupdates)
      .Num("core.call_ns_p50", percentile(0.50))
      .Num("core.call_ns_p99", percentile(0.99))
      .Int("core.call_samples", static_cast<int64_t>(durations.size()))
      .Num("core.updates_per_call",
           static_cast<double>(traced.updates()) /
               static_cast<double>(std::max<int64_t>(1, traced.calls())))
      .Num("core.site_to_coordinator_per_update",
           static_cast<double>(stats.site_to_coordinator) / updates)
      .Num("core.coordinator_to_site_per_update",
           static_cast<double>(stats.coordinator_to_site) / updates)
      .Num("core.broadcasts_per_mupdate",
           static_cast<double>(stats.broadcasts) / mupdates)
      .Int("core.sbc_syncs", diagnostics.sbc_syncs)
      .Int("core.straight_reports", diagnostics.straight_reports)
      .Int("core.stage_switches", diagnostics.stage_switches)
      .Int("core.phase2_switch_update", diagnostics.phase2_switch_time)
      .Int("core.arena_high_water_bytes", stats.arena_high_water_bytes)
      .Num("runtime.self_s_per_mupdate", self_s / mupdates)
      .Num(concurrent ? "runtime.transport_self_s_per_mupdate"
                      : "sim.self_s_per_mupdate",
           self_s / mupdates)
      .Num("runtime.coordinator_offcpu_fraction",
           1.0 - run.thread_cpu_s / run.wall_s)
      .Num("runtime.publishes_per_update",
           static_cast<double>(serving.publishes) / updates)
      .Num("runtime.echo_delivery_ratio",
           serving.echoes_sent > 0
               ? static_cast<double>(echoes_back) /
                     static_cast<double>(serving.echoes_sent)
               : 0.0)
      .Num("runtime.reads_per_sec",
           static_cast<double>(serving.total_reads) / run.wall_s)
      .Num("runtime.torn_read_ratio",
           attempts > 0 ? static_cast<double>(serving.torn_reads) /
                              static_cast<double>(attempts)
                        : 0.0)
      .Int("runtime.generation_regressions", serving.generation_regressions)
      .Num("runtime.frames_per_update",
           static_cast<double>(sockets.frames) / updates)
      .Num("runtime.updates_per_poll_round",
           sockets.poll_rounds > 0
               ? updates / static_cast<double>(sockets.poll_rounds)
               : 0.0)
      .Int("runtime.nacks", sockets.nacks_sent)
      .Int("runtime.duplicate_updates", sockets.duplicate_updates)
      .Int("runtime.transport_units", units)
      .Num("runtime.wire_codec_ns_per_frame",
           WireCodecNanosPerFrame(units, values, &session->errors))
      .Num("proc.cpu_s_per_mupdate", run.usage.cpu_s / mupdates)
      .Num("proc.involuntary_switches_per_s",
           static_cast<double>(run.usage.involuntary_switches) / run.wall_s);
  return m.Done();
}

/// Times one full set-up and keeps its inputs for the reps. The protocol
/// it constructs only times construction; every rep builds its own.
std::string SetUp(Session* session) {
  const Workload& w = *session->workload;
  session->inputs = Inputs();  // free the previous inputs before generating
  SetupTimes times;
  session->inputs =
      Generate(w, session->n, session->seed, session->tracer, &times);
  Construct(w, session->n, session->seed, session->tracer, &times.construct_s);
  return JsonObject()
      .Num("generate_s", times.generate_s)
      .Num("shard_s", times.shard_s)
      .Num("construct_s", times.construct_s)
      .Num("setup_s", times.total())
      .Done();
}

/// One rep over the session's inputs: construct a fresh protocol, run,
/// check. Traced reps wrap the protocol and add per-layer metrics; in a
/// traced process every rep records spans. Returns the rep's JSON record.
std::string Rep(Session* session, bool traced, bool warmup) {
  const Workload& w = *session->workload;
  const Inputs& in = session->inputs;
  Tracer* tracer = session->tracer;
  double construct_s = 0.0;
  const std::unique_ptr<sim::Protocol> protocol =
      Construct(w, session->n, session->seed, tracer, &construct_s);

  std::unique_ptr<TracedProtocol> wrapper;
  sim::Protocol* driven = protocol.get();
  if (traced) {
    wrapper = std::make_unique<TracedProtocol>(driven, session->n);
    driven = wrapper.get();
  }
  RunOutcome run;
  int64_t run_span = 0;
  {
    ScopedSpan span(tracer, "run");
    run = Run(w, in, driven, /*capture=*/false);
    run_span = span.id();
  }
  int64_t failed = 0;
  {
    ScopedSpan span(tracer, "verify");
    failed = CheckRun(w, in, session->n, run.result, &session->errors);
  }
  std::string layers;
  if (traced) {
    ScopedSpan span(tracer, "trace.layers");
    layers = LayerMetrics(session, *protocol, run, *wrapper, run_span);
  }
  session->attempted += session->n;
  session->failed += failed;

  const sim::MessageStats& stats = protocol->stats();
  const double updates = static_cast<double>(session->n);
  JsonObject rep;
  rep.Bool("warmup", warmup)
      .Bool("traced", traced)
      .Num("wall_s", run.wall_s)
      .Num("construct_s", construct_s)
      .Num("updates_per_sec", updates / run.wall_s)
      .Num("messages_per_update", static_cast<double>(stats.total()) / updates)
      .Num("wire_bytes_per_update",
           TransportUnits(w, run.result, stats) *
               static_cast<double>(runtime::wire::kFrameBytes) / updates)
      .Int("failed", failed);
  if (traced) rep.Raw("layers", layers);
  return rep.Done();
}

/// One untimed capture pass of a concurrent workload through the outside
/// checker; the pass's failed updates count like any rep's.
std::string Verify(Session* session) {
  const Workload& w = *session->workload;
  ScopedSpan span(session->tracer, "verify");
  JsonObject out;
  const bool self_test = SelfTestCatchesCorruptLog(session->seed);
  out.Bool("self_test_flagged_corrupt_log", self_test);
  if (!self_test) {
    session->errors.push_back("checker missed a corrupted publish log");
  }

  if (session->inputs.shards.empty()) SetUp(session);
  const Inputs& in = session->inputs;
  double construct_s = 0.0;
  const std::unique_ptr<sim::Protocol> protocol =
      Construct(w, session->n, session->seed, nullptr, &construct_s);
  const RunOutcome run = Run(w, in, protocol.get(), /*capture=*/true);
  int64_t failed = CheckRun(w, in, session->n, run.result, &session->errors);
  const runtime::ThreadedRunResult& serving = run.result.serving;
  const WalkResult walk =
      WalkCapture(in.shards, serving.transcript, serving.publish_log);
  if (!walk.error.empty()) session->errors.push_back("verify: " + walk.error);
  failed += walk.violations + walk.lost;

  std::unique_ptr<sim::Protocol> oracle =
      runtime::CreateForTransport(TransportKind::kSim, "counter", w.sites,
                                  Params(session->n, session->seed));
  const runtime::LinearizabilityReport report =
      runtime::CheckLinearizable(run.result, oracle.get());
  if (!report.linearizable) {
    session->errors.push_back("not linearizable: " + report.failure);
  }
  session->attempted += session->n;
  session->failed += failed;
  out.Int("steps_checked", walk.steps)
      .Int("violation_steps", walk.violations)
      .Int("lost_updates", walk.lost)
      .Bool("linearizable", report.linearizable)
      .Int("publishes_checked", report.publishes_checked)
      .Int("samples_checked", report.samples_checked)
      .Int("failed", failed);
  return out.Done();
}

constexpr char kUsage[] =
    "usage: nmc_benchmark --workload=NAME --seed=S [--seconds=T] "
    "[--log2_n=L] [--trace_out=PATH] [--verify]\n";

int Main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  common::Flags flags;
  const common::Status status = common::Flags::Parse(argc, argv, &flags);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(), kUsage);
    return 2;
  }
  const std::string name = flags.GetString("workload", "");
  const int64_t seed = flags.GetInt("seed", 1);
  const double seconds = flags.GetDouble("seconds", 2.0);
  const std::string trace_out = flags.GetString("trace_out", "");
  const bool verify = flags.GetBool("verify", false);
  const Workload* workload = FindWorkload(name);
  const int64_t log2_n =
      flags.GetInt("log2_n", workload != nullptr ? workload->log2_n : 0);
  for (const std::string& key : flags.UnusedKeys()) {
    std::fprintf(stderr, "unknown flag --%s\n%s", key.c_str(), kUsage);
    return 2;
  }
  for (const std::string& key : flags.Malformed()) {
    std::fprintf(stderr, "malformed value for --%s\n%s", key.c_str(), kUsage);
    return 2;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n%s", name.c_str(), kUsage);
    return 2;
  }
  if (log2_n < 10 || log2_n > 26 || seed < 0 || !(seconds >= 0.0)) {
    std::fprintf(stderr,
                 "--log2_n must be in [10, 26]; --seed, --seconds >= 0\n");
    return 2;
  }
  if (verify && workload->transport == TransportKind::kSim) {
    std::fprintf(stderr, "--verify checks a concurrent workload's capture\n");
    return 2;
  }
  const int cpus = OnlineCpus();
  if (Concurrency(*workload) > cpus) {
    std::fprintf(stderr,
                 "refusing workload %s: it runs %d threads/processes at once "
                 "but only %d CPUs are online, so it would measure time "
                 "slicing, not the transport\n",
                 workload->name, Concurrency(*workload), cpus);
    return 3;
  }

  registry::RegisterBuiltinProtocols();
  const bool traced = !trace_out.empty();
  Tracer tracer(process_start);
  Session session;
  session.workload = workload;
  session.n = int64_t{1} << log2_n;
  session.seed = static_cast<uint64_t>(seed);
  session.tracer = traced ? &tracer : nullptr;
  session.clock_overhead_ns = ClockOverheadNanos();

  std::vector<std::string> setups;
  std::vector<std::string> reps;
  std::string verify_json = "null";
  if (verify) {
    verify_json = Verify(&session);
  } else {
    for (int i = 0; i < kSetups; ++i) setups.push_back(SetUp(&session));
    reps.push_back(Rep(&session, /*traced=*/false, /*warmup=*/true));
    // Traced mode alternates untraced / traced reps so both see the same
    // host conditions; trace.overhead_ratio compares their medians.
    const int min_reps = traced ? 2 : 1;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < min_reps || Seconds(start, Clock::now()) < seconds;
         ++i) {
      reps.push_back(Rep(&session, traced && i % 2 == 1, /*warmup=*/false));
    }
    if (traced && workload->transport != TransportKind::kSim) {
      verify_json = Verify(&session);
    }
  }

  const double process_wall = Seconds(process_start, Clock::now());
  JsonObject out;
  out.Str("workload", workload->name)
      .Int("seed", seed)
      .Int("n", session.n)
      .Str("transport", runtime::TransportKindName(workload->transport))
      .Int("concurrency", Concurrency(*workload))
      .Int("nproc", cpus)
      .Str("simd", common::SimdLevelName(common::ActiveSimdLevel()))
      .Int("clock_overhead_ns", session.clock_overhead_ns)
      .Num("peak_rss_mb", PeakRssMiB())
      .Num("process_wall_s", process_wall)
      .Int("attempted", session.attempted)
      .Int("failed", session.failed)
      .Raw("setups", JsonArray(setups))
      .Raw("reps", JsonArray(reps))
      .Raw("verify", verify_json);
  std::vector<std::string> errors;
  for (const std::string& e : session.errors) errors.push_back(JsonString(e));
  out.Raw("errors", JsonArray(errors));
  if (traced) {
    out.Num("trace.residual_fraction",
            1.0 - tracer.TopLevelSeconds() / process_wall);
    if (!tracer.Write(trace_out, JsonObject()
                                     .Str("workload", workload->name)
                                     .Int("seed", seed)
                                     .Int("n", session.n)
                                     .Done())) {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
      return 1;
    }
  }
  std::printf("%s\n", out.Done().c_str());
  return session.errors.empty() && session.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace nmc::benchmark

int main(int argc, char** argv) { return nmc::benchmark::Main(argc, argv); }
