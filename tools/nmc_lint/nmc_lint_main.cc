// nmc_lint — determinism-invariant static analysis gate for this repo.
//
// Usage:
//   nmc_lint [flags] [roots...]
//
//   --root=DIR              repo root for scope decisions (default: cwd)
//   --compile-commands=PATH CMake compile database; its translation units
//                           are unioned with the directory scan so every
//                           built TU is covered (default:
//                           <root>/build/compile_commands.json if present)
//   --list-rules            print rule IDs + summaries and exit
//   roots...                repo-relative directories to lint (default:
//                           src bench tests tools)
//
// Every run is a repo run: the single-file rules and the include-graph
// rules over every file under the roots, so one entry serves CI, ctest and
// the pre-commit hook. The include graph is checked
// against the layer spec at <root>/tools/nmc_lint/layers.txt when that file
// exists. The only way to suppress a finding is an inline allow()
// annotation with a reason (README.md, "Static analysis").
//
// Exit codes: 0 = clean, 1 = findings printed, 2 = usage or I/O error.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "nmc_lint/lint.h"

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  std::string root = fs::current_path().string();
  std::string compile_commands;
  bool compile_commands_set = false;
  std::vector<std::string> roots;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const nmc::lint::RuleInfo& rule : nmc::lint::Rules()) {
        std::printf("%-36s %s\n", rule.id, rule.summary);
      }
      return 0;
    }
    if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg.rfind("--compile-commands=", 0) == 0) {
      compile_commands = arg.substr(19);
      compile_commands_set = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "nmc_lint: unknown flag %s\n", arg.c_str());
      return 2;
    } else if (fs::is_directory(fs::path(root) / arg) ||
               fs::is_directory(arg)) {
      roots.push_back(arg);
    } else {
      std::fprintf(stderr, "nmc_lint: %s is not a directory\n", arg.c_str());
      return 2;
    }
  }
  if (!compile_commands_set) {
    const fs::path fallback = fs::path(root) / "build/compile_commands.json";
    if (fs::exists(fallback)) compile_commands = fallback.string();
  }
  if (roots.empty()) roots = {"src", "bench", "tests", "tools"};

  nmc::lint::RepoLintOptions options;
  options.repo_root = root;
  options.compile_commands = compile_commands;
  options.roots = roots;
  const fs::path layers = fs::path(root) / "tools/nmc_lint/layers.txt";
  if (fs::exists(layers)) options.layers_path = layers.string();
  size_t files_linted = 0;
  const std::vector<nmc::lint::Finding> findings =
      nmc::lint::LintRepo(options, &files_linted);
  if (files_linted == 0) {
    std::fprintf(stderr, "nmc_lint: no files found under --root=%s\n",
                 root.c_str());
    return 2;
  }

  for (const nmc::lint::Finding& finding : findings) {
    std::printf("%s\n", nmc::lint::FormatFinding(finding).c_str());
  }
  if (findings.empty()) {
    std::fprintf(stderr, "nmc_lint: %zu files clean\n", files_linted);
    return 0;
  }
  std::fprintf(stderr, "nmc_lint: %zu findings in %zu files\n",
               findings.size(), files_linted);
  return 1;
}
