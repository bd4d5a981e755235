#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sim/channel.h"
#include "sim/protocol.h"

namespace nmc::sim {

/// The common parameter set a registered protocol builder receives.
/// Protocols read the fields they understand and ignore the rest, so one
/// value type can describe any of them (a bench flag set, a conformance
/// sweep, a fault-injection config).
struct ProtocolParams {
  /// Relative tracking accuracy.
  double epsilon = 0.2;
  /// Stream horizon (protocols with log(n) factors in their sampling laws).
  int64_t horizon_n = 4096;
  /// Failure probability target (randomized monotonic counters).
  double delta = 1e-6;
  /// Reporting period (periodic_sync).
  int64_t period = 8;
  /// Fault model of the protocol's network(s); kPerfect by default.
  ChannelConfig channel;
  uint64_t seed = 1;
};

/// What inputs a registered protocol accepts — drives stream generation in
/// factory-driven tests and benches.
struct ProtocolTraits {
  /// Accepts arbitrary values in [-1, 1] (false: exactly ±1 only).
  bool general_values = true;
  /// Monotonic counter of unit increments (+1 only).
  bool monotonic_only = false;
  /// Safe to drive from the threaded transport backend: the protocol is a
  /// self-contained state machine (always single-threaded — only one
  /// coordinator thread ever touches it) that does not reach into mutable
  /// process-global state behind the registry's back. False quarantines a
  /// protocol to --transport=sim.
  bool thread_safe = true;
};

/// String-keyed factory for every protocol in the library, so benches and
/// tests construct "the counter under this config" by name instead of
/// duplicating ad-hoc construction switches. Entries are kept in a sorted
/// flat vector (deterministic iteration, no node containers in src/sim).
///
/// Thread-safe: registration and lookups serialize on an internal mutex,
/// so the threaded transport backend (and any trial worker) may build
/// protocols by name without an external registration barrier. Traits()
/// returns a pointer into the table, which a later Register() can
/// reallocate — read the traits out immediately instead of caching the
/// pointer across registrations.
class ProtocolRegistry {
 public:
  using Builder = std::function<std::unique_ptr<Protocol>(
      int num_sites, const ProtocolParams& params)>;

  /// The process-wide registry.
  static ProtocolRegistry& Global();

  /// Registers a builder under `name`; returns false (and changes nothing)
  /// if the name is taken.
  bool Register(std::string name, const ProtocolTraits& traits,
                Builder builder);

  bool Contains(std::string_view name) const;

  /// Traits of a registered protocol, or nullptr if unknown.
  const ProtocolTraits* Traits(std::string_view name) const;

  /// Builds a registered protocol; aborts with the known names on an
  /// unknown `name` (a typo in a bench flag should fail loudly, not fall
  /// back to something that silently benchmarks the wrong protocol).
  std::unique_ptr<Protocol> Create(std::string_view name, int num_sites,
                                   const ProtocolParams& params) const;

  /// Registered names in sorted order.
  std::vector<std::string> Names() const;

 private:
  struct Entry {
    std::string name;
    ProtocolTraits traits;
    Builder builder;
  };

  /// Requires mutex_ held.
  const Entry* Find(std::string_view name) const;

  /// Serializes every entries_ access; never held while running a builder.
  mutable std::mutex mutex_;
  /// Sorted by name (binary-searched lookups, deterministic Names()).
  std::vector<Entry> entries_;
};

}  // namespace nmc::sim
