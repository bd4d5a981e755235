// Repo-level tests over the miniature trees in
// tools/nmc_lint/testdata/interproc/: each tree is linted end-to-end
// through LintRepo (repo_root = the tree, roots = {"src"}), so the tests
// cover file collection, the per-file symbol pass and the merge into
// sorted findings — exactly the production path. Mutable process state is
// reported in the file that declares it, whichever translation units call
// into it; no finding depends on another file.
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "nmc_lint/lint.h"

namespace nmc::lint {
namespace {

const char* kFixtureRoot = NMC_LINT_FIXTURE_DIR "/interproc";

std::vector<Finding> LintTree(const std::string& tree) {
  RepoLintOptions options;
  options.repo_root = std::string(kFixtureRoot) + "/" + tree;
  options.roots = {"src"};
  return LintRepo(options);
}

std::vector<std::string> Keys(const std::vector<Finding>& findings) {
  std::vector<std::string> keys;
  for (const Finding& f : findings) {
    keys.push_back(f.file + ":" + std::to_string(f.line) + ":" + f.rule);
  }
  return keys;
}

// ---- globals/: namespace-scope and static-member mutable state ---------

TEST(NmcLintInterprocTest, FlagsMutableGlobalsButNotConstOrPerObject) {
  const std::vector<Finding> findings = LintTree("globals");
  EXPECT_EQ(Keys(findings),
            (std::vector<std::string>{
                "src/common/state.cc:6:NO_MUTABLE_GLOBAL_STATE",
                "src/common/state.cc:12:NO_MUTABLE_GLOBAL_STATE",
            }));
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_NE(findings[0].message.find("'g_mutable_counter'"),
            std::string::npos);
  EXPECT_NE(findings[1].message.find("'Box::live_count_'"), std::string::npos);
}

// ---- pump/: a static one cross-TU call below the sim pump --------------

TEST(NmcLintInterprocTest, ReportsCrossTuStaticWhereItIsDeclared) {
  size_t files_linted = 0;
  RepoLintOptions options;
  options.repo_root = std::string(kFixtureRoot) + "/pump";
  options.roots = {"src"};
  const std::vector<Finding> findings = LintRepo(options, &files_linted);
  EXPECT_EQ(files_linted, 2u);
  // One finding, at the static's own line in notes.cc; the callers in
  // harness.cc and the recursive cycle through Recount add nothing.
  EXPECT_EQ(Keys(findings),
            (std::vector<std::string>{
                "src/common/notes.cc:11:NO_MUTABLE_GLOBAL_STATE",
            }));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find(
                "function-local static 'chunks' in NoteChunk()"),
            std::string::npos)
      << findings[0].message;
}

}  // namespace
}  // namespace nmc::lint
