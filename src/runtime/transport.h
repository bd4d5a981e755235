#pragma once

#include <cstdint>
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

/// Updates one site's turn takes before the next site's turn, on both
/// concurrent backends: the coordinator serves the sites in a fixed
/// rotation of turns, so the order in which the protocol sees the sites'
/// updates, its message count and its final estimate follow from the
/// shards, not from thread or socket timing. Fine enough that the sites
/// interleave about as finely as one unpacked socket window did (744
/// updates), so the message cost does not hinge on how the sites' shards
/// happen to line up. 1024 runs sockets_drift_read about as fast (DESIGN
/// §14); the value stays because it fixes the interleaving, and with it
/// the message count at each seed and E14's recovery distance (one turn
/// of each other site). A threads turn ends at exactly this many updates;
/// a sockets turn ends at the first frame boundary at or past it.
inline constexpr int64_t kTurnUpdates = 2048;

/// "sim" / "threads" / "sockets" — the --transport flag vocabulary.
const char* TransportKindName(TransportKind kind);

/// Parses the --transport flag value; false (and *out untouched) on an
/// unknown name.
bool ParseTransportKind(std::string_view name, TransportKind* out);

}  // namespace nmc::runtime
