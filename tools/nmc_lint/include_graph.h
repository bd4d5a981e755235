#pragma once

#include <map>
#include <string>
#include <vector>

#include "nmc_lint/lint.h"

namespace nmc::lint {

/// One resolved `#include` edge. Only includes that name a file inside the
/// repo appear in the graph — system and third-party headers are invisible
/// to the layering rules by construction.
struct IncludeRef {
  std::string target;  ///< repo-relative normalized path
  int line = 0;        ///< 1-based line of the #include directive

  bool operator==(const IncludeRef&) const = default;
};

struct IncludeGraph {
  /// file (repo-relative) -> its resolved repo includes, in directive order.
  std::map<std::string, std::vector<IncludeRef>> edges;
};

/// Lexes each file and resolves its #include directives against the repo.
/// Resolution mirrors the build's include dirs: a path is tried relative to
/// the including file's directory, then under src/, then tools/, then the
/// repo root; the first existing file wins. Unreadable files are skipped
/// (LintRepo already reports LINT_IO for them).
IncludeGraph BuildIncludeGraph(const std::string& repo_root,
                               const std::vector<std::string>& files);

/// The declared layering. `layers` is bottom-up: layers[0] holds the path
/// prefixes of the foundation, layers.back() the outermost consumers. A file
/// belongs to the longest matching prefix; files matching no prefix are
/// exempt from the layer rules (but still count for cycles and depth).
struct LayerSpec {
  std::vector<std::vector<std::string>> layers;
  int depth_budget = 0;  ///< max transitive include depth; 0 = unlimited
};

/// Spec file format, one directive per line ('#' comments, blank lines ok):
///   depth_budget N
///   layer <prefix> [<prefix>...]     # one line per layer, bottom-up
bool ParseLayerSpec(const std::string& content, LayerSpec* spec,
                    std::string* error);
bool LoadLayerSpec(const std::string& path, LayerSpec* spec,
                   std::string* error);

/// Runs the three cross-file rules over the graph:
///   LAYERING_VIOLATION — an include climbs to a higher layer, or crosses
///     between two modules declared side-by-side in the same layer;
///   NO_INCLUDE_CYCLES  — a cycle in the file-level include graph (one
///     finding per back edge, carrying the full cycle path);
///   INCLUDE_DEPTH      — a file's longest transitive include chain exceeds
///     spec.depth_budget (reported at the include starting the chain).
/// Findings are sorted by (file, line, rule).
std::vector<Finding> CheckIncludeGraph(const IncludeGraph& graph,
                                       const LayerSpec& spec);

}  // namespace nmc::lint
