#include "bench/bench_json.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/flags.h"

namespace nmc::bench {

namespace {

/// Shortest form that round-trips a double through JSON.
std::string JsonDouble(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  // Trim to the shortest representation that still parses back exactly.
  for (int precision = 1; precision < 17; ++precision) {
    char candidate[32];
    std::snprintf(candidate, sizeof(candidate), "%.*g", precision, value);
    if (std::strtod(candidate, nullptr) == value) return candidate;
  }
  return buffer;
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void AppendRun(const RunRecord& run, std::string* out) {
  const RunSummary& s = run.summary;
  *out += "    {\n";
  *out += "      \"label\": " + JsonString(run.label) + ",\n";
  *out += "      \"trials\": " + std::to_string(run.trials) + ",\n";
  *out += "      \"num_sites\": " + std::to_string(run.num_sites) + ",\n";
  *out += "      \"epsilon\": " + JsonDouble(run.epsilon) + ",\n";
  *out += "      \"psi\": " + JsonString(run.psi_name) + ",\n";
  *out += "      \"mean_messages\": " + JsonDouble(s.mean_messages) + ",\n";
  *out += "      \"stderr_messages\": " + JsonDouble(s.stderr_messages) + ",\n";
  *out += "      \"violation_fraction\": " + JsonDouble(s.violation_fraction) +
          ",\n";
  *out += "      \"trials_with_violation\": " +
          std::to_string(s.trials_with_violation) + ",\n";
  *out += "      \"max_rel_error\": " + JsonDouble(s.max_rel_error) + ",\n";
  *out += "      \"total_updates\": " + std::to_string(s.total_updates) + ",\n";
  *out += "      \"wall_seconds\": " + JsonDouble(s.wall_seconds) + ",\n";
  *out += "      \"updates_per_sec\": " + JsonDouble(s.updates_per_sec()) +
          "\n";
  *out += "    }";
}

}  // namespace

int64_t BenchReport::total_updates() const {
  int64_t total = 0;
  for (const RunRecord& run : runs) total += run.summary.total_updates;
  return total;
}

double BenchReport::updates_per_sec() const {
  double batch_seconds = 0.0;
  for (const RunRecord& run : runs) batch_seconds += run.summary.wall_seconds;
  return batch_seconds > 0.0
             ? static_cast<double>(total_updates()) / batch_seconds
             : 0.0;
}

common::RunningStat BenchReport::pooled_messages() const {
  common::RunningStat pooled;
  for (const RunRecord& run : runs) pooled.Merge(run.summary.messages_stat);
  return pooled;
}

std::string BenchReportToJson(const BenchReport& report) {
  std::string out = "{\n";
  out += "  \"bench\": " + JsonString(report.bench) + ",\n";
  out += "  \"threads\": " + std::to_string(report.threads) + ",\n";
  out += "  \"wall_seconds\": " + JsonDouble(report.wall_seconds) + ",\n";
  out += "  \"total_updates\": " + std::to_string(report.total_updates()) +
         ",\n";
  out += "  \"updates_per_sec\": " + JsonDouble(report.updates_per_sec()) +
         ",\n";
  const common::RunningStat pooled = report.pooled_messages();
  out += "  \"pooled_messages\": {\n";
  out += "    \"trials\": " + std::to_string(pooled.count()) + ",\n";
  out += "    \"mean\": " + JsonDouble(pooled.mean()) + ",\n";
  out += "    \"stddev\": " + JsonDouble(pooled.stddev()) + ",\n";
  out += "    \"min\": " + JsonDouble(pooled.min()) + ",\n";
  out += "    \"max\": " + JsonDouble(pooled.max()) + "\n";
  out += "  },\n";
  out += "  \"metrics\": [";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\n";
    out += "      \"name\": " + JsonString(report.metrics[i].name) + ",\n";
    out += "      \"value\": " + JsonDouble(report.metrics[i].value) + "\n";
    out += "    }";
  }
  out += report.metrics.empty() ? "],\n" : "\n  ],\n";
  out += "  \"runs\": [";
  for (size_t i = 0; i < report.runs.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    AppendRun(report.runs[i], &out);
  }
  out += report.runs.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

bool WriteBenchReport(const std::string& path, const BenchReport& report) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "bench: cannot open %s for writing\n", path.c_str());
    return false;
  }
  const std::string json = BenchReportToJson(report);
  const size_t written = std::fwrite(json.data(), 1, json.size(), file);
  const bool ok = written == json.size() && std::fclose(file) == 0;
  if (!ok) std::fprintf(stderr, "bench: short write to %s\n", path.c_str());
  return ok;
}

namespace {

struct BenchSession {
  bool initialized = false;
  BenchReport report;
  std::string json_out;
  int run_counter = 0;
  sim::ChannelConfig channel;
  runtime::TransportKind transport = runtime::TransportKind::kSim;
  std::chrono::steady_clock::time_point start;
};

BenchSession& Session() {
  static BenchSession session;
  return session;
}

/// The single declaration of the shared bench flag vocabulary. Adding a
/// flag here makes every bench binary (InitBench-based and bench_micro's
/// peeler alike) accept it and mention it in unknown-flag errors.
struct BenchFlagSpec {
  const char* name;   // flag key, without the leading "--"
  const char* usage;  // how it renders in the help string
};

constexpr BenchFlagSpec kBenchFlags[] = {
    {"threads", "--threads=N"},
    {"json_out", "--json_out=PATH"},
    {"channel", "--channel=perfect|loss|delay"},
    {"loss", "--loss=P"},
    {"dup", "--dup=P"},
    {"delay_prob", "--delay_prob=P"},
    {"delay_max", "--delay_max=T"},
    {"channel_seed", "--channel_seed=S"},
    {"transport", "--transport=sim|threads|sockets"},
};

bool IsSharedBenchFlag(const std::string& token) {
  for (const BenchFlagSpec& spec : kBenchFlags) {
    const std::string prefix = std::string("--") + spec.name;
    if (token == prefix) return true;
    if (token.rfind(prefix + "=", 0) == 0) return true;
  }
  return false;
}

/// Reads every shared flag out of `flags` (marking each as queried) into
/// *values. Returns false with *error set on a semantically bad value that
/// common::Flags cannot classify itself (an unknown --channel kind).
bool ConsumeBenchFlags(const common::Flags& flags, BenchFlagValues* values,
                       std::string* error) {
  values->threads = flags.Threads();
  values->json_out = flags.GetString("json_out", "");

  sim::ChannelConfig& channel = values->channel;
  const std::string kind = flags.GetString("channel", "perfect");
  if (kind == "perfect") {
    channel.kind = sim::ChannelConfig::Kind::kPerfect;
  } else if (kind == "loss") {
    channel.kind = sim::ChannelConfig::Kind::kLoss;
  } else if (kind == "delay") {
    channel.kind = sim::ChannelConfig::Kind::kDelay;
  } else {
    *error = "--channel expects perfect|loss|delay, got '" + kind + "'";
    return false;
  }
  channel.loss = flags.GetDouble("loss", channel.loss);
  channel.duplicate = flags.GetDouble("dup", channel.duplicate);
  channel.delay_probability =
      flags.GetDouble("delay_prob", channel.delay_probability);
  channel.max_delay = flags.GetInt("delay_max", channel.max_delay);
  channel.seed = static_cast<uint64_t>(
      flags.GetInt("channel_seed", static_cast<int64_t>(channel.seed)));

  const std::string transport = flags.GetString("transport", "sim");
  if (!runtime::ParseTransportKind(transport, &values->transport)) {
    *error = "--transport expects sim|threads|sockets, got '" + transport + "'";
    return false;
  }
  return true;
}

}  // namespace

std::string BenchFlagHelp() {
  std::string help = "supported:";
  bool first = true;
  for (const BenchFlagSpec& spec : kBenchFlags) {
    help += first ? " " : ", ";
    help += spec.usage;
    first = false;
  }
  return help;
}

void PeelBenchFlags(int argc, const char* const* argv,
                    const std::string& bench_name, BenchFlagValues* values,
                    std::vector<std::string>* rest) {
  std::vector<const char*> ours;
  ours.push_back(argc > 0 ? argv[0] : "bench");
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (IsSharedBenchFlag(token)) {
      ours.push_back(argv[i]);
    } else {
      rest->push_back(token);
    }
  }
  common::Flags flags;
  const common::Status status =
      common::Flags::Parse(static_cast<int>(ours.size()), ours.data(), &flags);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", bench_name.c_str(),
                 status.message().c_str());
    std::exit(2);
  }
  std::string error;
  if (!ConsumeBenchFlags(flags, values, &error)) {
    std::fprintf(stderr, "%s: %s\n", bench_name.c_str(), error.c_str());
    std::exit(2);
  }
  if (!flags.Malformed().empty()) {
    std::fprintf(stderr, "%s: malformed value for --%s\n", bench_name.c_str(),
                 flags.Malformed().front().c_str());
    std::exit(2);
  }
}

void InitBenchRest(int argc, const char* const* argv,
                   const std::string& bench_name,
                   std::vector<std::string>* rest) {
  BenchSession& session = Session();
  session.initialized = true;
  session.report.bench = bench_name;
  session.start = std::chrono::steady_clock::now();

  BenchFlagValues values;
  PeelBenchFlags(argc, argv, bench_name, &values, rest);
  session.report.threads = values.threads;
  session.json_out = values.json_out;
  session.channel = values.channel;
  session.transport = values.transport;
  if (session.report.threads > 1) {
    std::printf("[bench: %d worker threads]\n", session.report.threads);
  }
  if (session.channel.faulty()) {
    const char* kind =
        session.channel.kind == sim::ChannelConfig::Kind::kLoss ? "loss"
                                                                : "delay";
    std::printf("[bench: %s channel installed]\n", kind);
  }
  if (session.transport != runtime::TransportKind::kSim) {
    std::printf("[bench: %s transport]\n",
                runtime::TransportKindName(session.transport));
  }
}

void InitBench(int argc, const char* const* argv,
               const std::string& bench_name) {
  std::vector<std::string> rest;
  InitBenchRest(argc, argv, bench_name, &rest);
  if (!rest.empty()) {
    std::fprintf(stderr, "%s: unknown flag %s (%s)\n", bench_name.c_str(),
                 rest.front().c_str(), BenchFlagHelp().c_str());
    std::exit(2);
  }
}

int BenchThreads() {
  const BenchSession& session = Session();
  return session.initialized ? session.report.threads : 1;
}

const sim::ChannelConfig& BenchChannel() {
  return Session().channel;
}

runtime::TransportKind BenchTransport() {
  return Session().transport;
}

void RecordRun(const RunRecord& record) {
  BenchSession& session = Session();
  if (!session.initialized) return;
  session.report.runs.push_back(record);
}

void RecordMetric(const std::string& name, double value) {
  BenchSession& session = Session();
  if (!session.initialized) return;
  session.report.metrics.push_back(BenchMetric{name, value});
}

std::string NextRunLabel() {
  BenchSession& session = Session();
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "repeat%02d", session.run_counter++);
  return buffer;
}

int FinishBench() {
  BenchSession& session = Session();
  if (!session.initialized) return 0;
  session.report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    session.start)
          .count();
  if (session.json_out.empty()) return 0;
  const bool ok = WriteBenchReport(session.json_out, session.report);
  if (ok) {
    std::printf("[bench: wrote %s — %lld updates in %.2fs batch time, "
                "%.0f updates/sec]\n",
                session.json_out.c_str(),
                static_cast<long long>(session.report.total_updates()),
                session.report.wall_seconds,
                session.report.updates_per_sec());
  }
  return ok ? 0 : 1;
}

}  // namespace nmc::bench
