#pragma once

#include <string_view>

namespace nmc::runtime {

/// Which transport drives a protocol run — the backend seam selected at
/// bench time via --transport (modeled on the DKVStore one-interface /
/// many-backends pattern).
///
///   * kSim: the historical deterministic in-process simulator
///     (sim::RunTracking). Single-threaded, simulated time, bit-exact
///     across machines and thread counts — it stays the oracle that the
///     concurrent backend is checked against.
///   * kThreads: the real-time concurrent runtime (runtime::RunThreaded):
///     one thread per site feeding lock-free SPSC mailboxes, a coordinator
///     thread running the protocol, and a seqlock-published estimate read
///     wait-free by query-client threads.
///   * kSockets: the multi-process runtime (runtime::RunSockets): sites are
///     forked child processes speaking the versioned wire framing of
///     sim::Message (runtime/wire.h) over one Unix socketpair per site, a
///     nonblocking poll loop on the coordinator feeding the same confined
///     protocol drive loop and the same seqlock serving layer.
///     Channel faults become *real* transport faults here: frame-level
///     drop/delay shims and SIGKILLed children.
enum class TransportKind {
  kSim = 0,
  kThreads = 1,
  kSockets = 2,
};

/// "sim" / "threads" / "sockets" — the --transport flag vocabulary.
const char* TransportKindName(TransportKind kind);

/// Parses the --transport flag value; false (and *out untouched) on an
/// unknown name.
bool ParseTransportKind(std::string_view name, TransportKind* out);

}  // namespace nmc::runtime
