// Interprocedural-pass tests over the miniature trees in
// tools/nmc_lint/testdata/interproc/: each tree is linted end-to-end
// through LintRepo (repo_root = the tree, roots = {"src"}), so the tests
// cover file collection, symbol extraction, call-graph construction, the
// reachability walk, and the merge into per-file findings — exactly the
// production path. Findings are asserted as file:line:rule keys plus the
// load-bearing parts of the message and the Finding::flow chain.
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
  EXPECT_NE(findings[0].message.find("'g_mutable_counter'"),
            std::string::npos);
  EXPECT_NE(findings[1].message.find("'Box::live_count_'"), std::string::npos);
}

// ---- static_local/: mutable static on a reentrant path -----------------

TEST(NmcLintInterprocTest, FlagsStaticLocalsReachableFromAuditClasses) {
  const std::vector<Finding> findings = LintTree("static_local");
  EXPECT_EQ(Keys(findings),
            (std::vector<std::string>{
                "src/sim/net.cc:19:NO_STATIC_LOCAL_IN_REENTRANT",
            }));
  // Every Network member is a reentrancy root, so the shortest chain
  // starts at Dispatch, not Route; const and thread_local statics in the
  // same body are not findings.
  EXPECT_NE(findings[0].message.find(
                "[call chain: Network::Dispatch (src/sim/net.cc:16) -> "
                "CountCall (src/sim/net.cc:18)]"),
            std::string::npos)
      << findings[0].message;
  EXPECT_FALSE(findings[0].flow.empty());
}

// ---- pump/: the sim pump and psi's chunk call root the audit -----------

TEST(NmcLintInterprocTest, FlagsStaticLocalsBelowThePumpAndAssign) {
  const std::vector<Finding> findings = LintTree("pump");
  EXPECT_EQ(Keys(findings),
            (std::vector<std::string>{
                "src/common/notes.cc:12:NO_STATIC_LOCAL_IN_REENTRANT",
            }));
  // The chain crosses a TU boundary; the message names every hop with its
  // definition coordinates.
  EXPECT_NE(findings[0].message.find(
                "[call chain: Policy::Assign (src/sim/harness.cc:23) -> "
                "NoteChunk (src/common/notes.cc:11)]"),
            std::string::npos)
      << findings[0].message;
  // The flow is the root, one step per call site, then the static itself.
  EXPECT_EQ(findings[0].flow,
            (std::vector<FlowStep>{
                {"src/sim/harness.cc", 23,
                 "Policy::Assign() is an entry point"},
                {"src/sim/harness.cc", 25, "calls NoteChunk()"},
                {"src/common/notes.cc", 12, "static local 'chunks'"},
            }));
  // Findings of the token-pattern rules carry no flow.
  EXPECT_TRUE((Finding{"f.cc", 1, "R", "m"}).flow.empty());
}

// ---- thread_compat/: contract edges and annotation grammar -------------

TEST(NmcLintInterprocTest, EnforcesReentrantContractsAndGrammar) {
  const std::vector<Finding> findings = LintTree("thread_compat");
  EXPECT_EQ(Keys(findings),
            (std::vector<std::string>{
                "src/common/workers.cc:17:THREAD_COMPAT",
                "src/common/workers.cc:18:THREAD_COMPAT",
                "src/common/workers.cc:27:THREAD_COMPAT",
                "src/common/workers.cc:30:THREAD_COMPAT",
                "src/common/workers.cc:33:THREAD_COMPAT",
            }));
  // Call-edge findings name both sides of the broken contract.
  EXPECT_NE(findings[0].message.find("unannotated Unmarked()"),
            std::string::npos);
  EXPECT_NE(findings[1].message.find("not-thread-safe Hostile()"),
            std::string::npos);
  // Grammar findings: missing reason, unknown verb, unattached marker.
  EXPECT_NE(findings[2].message.find("no reason"), std::string::npos);
  EXPECT_NE(findings[3].message.find("'frobnicates'"), std::string::npos);
  EXPECT_NE(findings[4].message.find("attaches to no function"),
            std::string::npos);
}

}  // namespace
}  // namespace nmc::lint
