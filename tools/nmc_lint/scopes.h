#pragma once

#include <string>

namespace nmc::lint {

// Path scopes and the shared name tables. Rule *scope* decisions use only
// the repo-relative path prefix, so fixture tests can lint files "as if"
// they lived anywhere. The token-pattern rules (lint.cc) and the call-graph
// pass (call_graph.cc), which roots the reentrancy audit, make the same
// decisions from the same predicates.

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

/// Determinism scope: everything that can influence a recorded result —
/// the library, the bench drivers, the CLI tools, and (since the
/// interprocedural PR) tests/. Tests only *check* results, but an
/// unseeded RNG in a test still makes the check itself unreproducible,
/// which is how flakes are born.
inline bool InDeterminismScope(const std::string& path) {
  return StartsWith(path, "src/") || StartsWith(path, "bench/") ||
         StartsWith(path, "tools/") || StartsWith(path, "tests/");
}

/// Scope of the library-state concurrency rules (mutable globals, thread
/// annotations): the library itself. bench/tests/tools binaries own their
/// process and may keep globals (gtest and google-benchmark registries
/// force them to).
inline bool InLibraryCode(const std::string& path) {
  return StartsWith(path, "src/");
}

inline bool InRepoCode(const std::string& path) {
  return StartsWith(path, "src/") || StartsWith(path, "bench/") ||
         StartsWith(path, "tests/") || StartsWith(path, "tools/");
}

/// The RNG implementation itself is the one place allowed to spell engine
/// constructors — it *is* the factory the provenance rule points everyone
/// at.
inline bool IsRngFactory(const std::string& path) {
  return path == "src/common/rng.h" || path == "src/common/rng.cc";
}

/// Scope of the atomics-discipline rules (ATOMIC_ORDER_EXPLICIT,
/// SEQ_CST_JUSTIFIED): the library. Tests and tools may use defaulted
/// seq_cst atomics for scaffolding; library code states every ordering.
inline bool InAtomicsDisciplineScope(const std::string& path) {
  return StartsWith(path, "src/");
}

/// Files whose concurrency must be expressed through the atomics policy
/// shim (common/atomic_policy.h) so tools/nmc_race can model-check it:
/// the threaded runtime plus the lock-free primitives that back the
/// reentrant audit classes (SpscQueue, Seqlock). The shim itself is
/// outside this scope — it is the one place that spells std::atomic.
inline bool InModeledConcurrencyScope(const std::string& path) {
  return StartsWith(path, "src/runtime/") ||
         path == "src/common/spsc_queue.h" || path == "src/common/seqlock.h";
}

/// Entry points of the reentrancy audit (NO_STATIC_LOCAL_IN_REENTRANT):
/// the per-update protocol calls, ProcessChunk taking psi's same-site runs,
/// CheckCall (the tracking check over one protocol call's updates), the
/// network delivery machinery they drive, and the sim pump with its
/// assignment policy (PumpChunk, and psi's Assign, which writes a chunk's
/// same-site runs into the pump's run buffer). Each runs once or more per
/// stream update or chunk on whatever thread drives the protocol, so a
/// static local anywhere below one is shared by every concurrent run.
/// Their definitions in protocol code root the audit beside the
/// kReentrantAuditClasses members.
inline constexpr const char* kReentrantAuditEntryPoints[] = {
    "OnLocalUpdate", "ProcessUpdate",        "ProcessBatch",
    "ProcessChunk",  "ProcessRun",           "ConsumeRun",
    "DeliverAll",    "Route",                "BeginTickSlow",
    "SendToCoordinator", "SendToSite",       "Broadcast",
    "OnSiteMessage", "OnCoordinatorMessage", "PumpChunk",
    "Assign",        "CheckCall"};

/// Classes whose member functions root the reentrancy audit
/// (NO_STATIC_LOCAL_IN_REENTRANT): the seams the threaded runtime calls
/// from concurrent contexts — the protocol/network surface plus the
/// lock-free primitives (SPSC mailboxes, the seqlock estimate slot).
inline constexpr const char* kReentrantAuditClasses[] = {
    "Protocol", "Network", "BatchRng", "SpscQueue", "Seqlock"};

inline constexpr const char* kMapLike[] = {"map", "multimap", "deque"};

}  // namespace nmc::lint
