#pragma once

#include <string>

namespace nmc::lint {

// Path scopes and the shared name tables. Rule *scope* decisions use only
// the repo-relative path prefix, so fixture tests can lint files "as if"
// they lived anywhere.

inline bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

inline bool IsHeader(const std::string& path) {
  return path.ends_with(".h") || path.ends_with(".hpp");
}

/// src/ minus src/bench/ — the simulator + protocol library proper, where
/// wall-clock reads and console output are banned (src/bench is the timing
/// and reporting layer, which needs both).
inline bool InSimLibrary(const std::string& path) {
  return StartsWith(path, "src/") && !StartsWith(path, "src/bench/");
}

/// Directories whose code decides *what messages are sent when* — any
/// iteration-order dependence here leaks straight into message schedules.
inline bool InProtocolCode(const std::string& path) {
  return StartsWith(path, "src/core/") || StartsWith(path, "src/hyz/") ||
         StartsWith(path, "src/baselines/") || StartsWith(path, "src/sim/");
}

inline bool InHotPath(const std::string& path) {
  return StartsWith(path, "src/sim/");
}

/// Everything the linter looks at, and the scope of NO_UNSEEDED_RNG's
/// banned entropy sources: the library, the bench binaries, the CLI tools
/// and tests/. An entropy source in a test makes the check itself
/// unreproducible. Whether a seed actually reaches the coins is not a
/// lexical property; tests/seed_reach_test.cc checks it at run time.
inline bool InRepoCode(const std::string& path) {
  return StartsWith(path, "src/") || StartsWith(path, "bench/") ||
         StartsWith(path, "tests/") || StartsWith(path, "tools/");
}

/// The library itself: scope of NO_MUTABLE_GLOBAL_STATE and of the
/// atomics-discipline rules (ATOMIC_ORDER_EXPLICIT, SEQ_CST_JUSTIFIED).
/// bench/tests/tools binaries own their process and may keep globals (gtest
/// and google-benchmark registries force them to), and may use defaulted
/// seq_cst atomics for scaffolding; library code states every ordering.
inline bool InLibraryCode(const std::string& path) {
  return StartsWith(path, "src/");
}

/// Files whose concurrency must be expressed through the atomics policy
/// shim (common/atomic_policy.h) so tools/nmc_race can model-check it:
/// the threaded runtime plus the lock-free primitives it is built on
/// (SpscQueue, Seqlock). The shim itself is outside this scope — it is the
/// one place that spells std::atomic.
inline bool InModeledConcurrencyScope(const std::string& path) {
  return StartsWith(path, "src/runtime/") ||
         path == "src/common/spsc_queue.h" || path == "src/common/seqlock.h";
}

inline constexpr const char* kMapLike[] = {"map", "multimap", "deque"};

}  // namespace nmc::lint
