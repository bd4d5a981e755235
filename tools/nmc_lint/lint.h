#pragma once

#include <string>
#include <vector>

namespace nmc::lint {

/// One rule violation (or annotation-hygiene problem) at a specific line.
struct Finding {
  std::string file;  ///< Repo-relative path, as passed to LintContent.
  int line = 0;      ///< 1-based line number.
  std::string rule;  ///< Rule ID, e.g. "NO_UNSEEDED_RNG".
  std::string message;

  bool operator==(const Finding&) const = default;
};

struct RuleInfo {
  const char* id;
  const char* summary;
};

/// Every rule the linter can emit, in stable order (for --list-rules and for
/// validating allow() annotations).
const std::vector<RuleInfo>& Rules();

/// Lints `content` as if it lived at repo-relative `path`, running every
/// single-file rule. Scope decisions (which rules apply) use only the path
/// prefix, so fixture tests can lint a testdata file "as if" it were in
/// src/sim/. The include-graph rules (layering, cycles, depth) run only
/// through LintRepo. Findings are sorted by (line, rule).
std::vector<Finding> LintContent(const std::string& path,
                                 const std::string& content);

/// Full repo run: single-file rules over every collected file and the
/// include-graph rules (LAYERING_VIOLATION, NO_INCLUDE_CYCLES,
/// INCLUDE_DEPTH) against the layer spec. Graph findings attach to the
/// offending #include line and are suppressible by the same inline allow
/// annotations as everything else.
/// An unreadable collected file is one LINT_IO finding at line 0.
struct RepoLintOptions {
  std::string repo_root;
  std::string compile_commands;     ///< empty = no compile database
  std::vector<std::string> roots;   ///< repo-relative directories
  std::string layers_path;          ///< empty = skip include-graph rules
};
std::vector<Finding> LintRepo(const RepoLintOptions& options,
                              size_t* files_linted = nullptr);

/// Builds the file list for a repo lint run: every *.h/*.hpp/*.cc/*.cpp
/// found under `roots` (repo_root-relative directories), unioned with the
/// translation units named by `compile_commands_path` (empty string = no
/// compile database) that fall under those roots. Paths containing a
/// "testdata" component are excluded — lint fixtures are deliberately
/// pathological. Returned paths are repo_root-relative and sorted.
std::vector<std::string> CollectFiles(const std::string& repo_root,
                                      const std::string& compile_commands_path,
                                      const std::vector<std::string>& roots);

/// "path:line: RULE: message" — the stable output format.
std::string FormatFinding(const Finding& finding);

}  // namespace nmc::lint
