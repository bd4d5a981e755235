#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "nmc_lint/lint.h"
#include "nmc_lint/symbols.h"

namespace nmc::lint {

/// One resolved call edge: caller node → callee node, at `line` in the
/// caller's file.
struct GraphEdge {
  size_t callee = 0;
  int line = 0;
};

/// Result of a multi-source BFS over the graph: for every node, the shortest
/// hop distance from the root set and the (parent, call-line) link to walk a
/// chain back to its root. Deterministic: roots are visited in node order
/// and adjacency lists are sorted, so ties always break the same way.
struct Reachability {
  static constexpr size_t kUnreached = static_cast<size_t>(-1);
  std::vector<size_t> parent;    ///< kUnreached = root or unreached
  std::vector<int> parent_line;  ///< call-site line in the parent's file
  std::vector<int> depth;        ///< -1 = unreached, 0 = root
  bool Reached(size_t node) const { return depth[node] >= 0; }
};

/// Cross-TU call graph over every function definition the symbol pass found
/// in the given files. Name resolution is best-effort and deterministic
/// (DESIGN.md §11): `std::`-qualified calls are external, qualified calls
/// must suffix-match the definition's namespace/class path, member calls
/// prefer member functions (the caller's own class first), bare calls prefer
/// same class, then same file, then same namespace. An ambiguous call links
/// to every candidate in its best tier (overload sets collapse onto one
/// name); a call matching nothing links nowhere.
class CallGraph {
 public:
  /// `files` must be in a deterministic (sorted-by-path) order; node order,
  /// edge order, and every downstream chain inherit determinism from it.
  static CallGraph Build(const std::vector<const FileSymbols*>& files);

  const std::vector<FunctionSymbol>& nodes() const { return nodes_; }
  const std::vector<std::vector<GraphEdge>>& adjacency() const {
    return adjacency_;
  }

  /// Hot-path roots: definitions of kHotPathEntryPoints names in protocol
  /// code (InProtocolCode).
  std::vector<size_t> HotPathRoots() const;

  /// Reentrancy-audit roots: hot-path roots plus member functions of
  /// kReentrantAuditClasses plus every `// nmc: reentrant` function.
  std::vector<size_t> ReentrancyRoots() const;

  Reachability ReachableFrom(const std::vector<size_t>& roots) const;

  /// Root → … → node as node indices (empty if unreached).
  std::vector<size_t> ChainTo(const Reachability& reach, size_t node) const;

  /// " [call chain: A (f:1) -> B (g:2)]" rendered from ChainTo output
  /// (definition coordinates).
  std::string RenderChain(const std::vector<size_t>& chain) const;

  /// Finding::flow steps for a chain ending at a hazard at (file, line):
  /// the entry definition, each call site along the chain, the hazard.
  std::vector<FlowStep> ChainFlow(const Reachability& reach,
                                  const std::vector<size_t>& chain,
                                  const std::string& hazard_file,
                                  int hazard_line,
                                  const std::string& hazard_note) const;

 private:
  std::vector<FunctionSymbol> nodes_;
  std::vector<std::vector<GraphEdge>> adjacency_;
};

/// The interprocedural rules, appended into `findings_by_file` (keyed by
/// repo-relative path):
///   - the hot-path scan: NO_HEAP_IN_HOT_PATH,
///     NO_PER_UPDATE_TRANSCENDENTALS and NO_MAP_IN_HOT_PATH hazards in a
///     hot-path entry point's body or in any function it reaches, with
///     the entry point → hazard chain in Finding::flow (and, one call or
///     more away, in the message);
///   - NO_STATIC_LOCAL_IN_REENTRANT: mutable function-local statics in any
///     function reachable from the reentrancy-audit roots;
///   - THREAD_COMPAT: a `// nmc: reentrant` function calling a resolved
///     callee that is not itself annotated reentrant.
/// Only src/ files participate (bench/tests own their processes).
void RunInterprocRules(const std::vector<const FileSymbols*>& files,
                       const CallGraph& graph,
                       std::map<std::string, std::vector<Finding>>*
                           findings_by_file);

}  // namespace nmc::lint
