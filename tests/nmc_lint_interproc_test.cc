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

const Finding* FindByKey(const std::vector<Finding>& findings,
                         const std::string& key) {
  for (const Finding& f : findings) {
    if (f.file + ":" + std::to_string(f.line) + ":" + f.rule == key) return &f;
  }
  return nullptr;
}

// ---- chain/: hazards in an entry point and three calls below it --------

TEST(NmcLintInterprocTest, PropagatesHotPathRulesAcrossTranslationUnits) {
  const std::vector<Finding> findings = LintTree("chain");
  EXPECT_EQ(Keys(findings),
            (std::vector<std::string>{
                "src/common/helpers.cc:19:NO_HEAP_IN_HOT_PATH",
                "src/common/helpers.cc:20:NO_PER_UPDATE_TRANSCENDENTALS",
                "src/core/pump.cc:23:NO_PER_UPDATE_TRANSCENDENTALS",
            }));
}

TEST(NmcLintInterprocTest, ChainMessageNamesEveryHop) {
  const std::vector<Finding> findings = LintTree("chain");
  const Finding* heap =
      FindByKey(findings, "src/common/helpers.cc:19:NO_HEAP_IN_HOT_PATH");
  ASSERT_NE(heap, nullptr);
  // The full entry-point → hazard chain rides in the message, with the
  // definition coordinates of each hop.
  EXPECT_NE(heap->message.find(
                "[call chain: Pump::ProcessUpdate (src/core/pump.cc:21) -> "
                "Pump::StageOne (src/core/pump.cc:27) -> "
                "StageTwo (src/common/helpers.cc:13) -> "
                "StageThree (src/common/helpers.cc:18)]"),
            std::string::npos)
      << heap->message;
}

TEST(NmcLintInterprocTest, ChainFlowStartsAtEntryPointAndEndsAtHazard) {
  const std::vector<Finding> findings = LintTree("chain");
  const Finding* heap =
      FindByKey(findings, "src/common/helpers.cc:19:NO_HEAP_IN_HOT_PATH");
  ASSERT_NE(heap, nullptr);
  // Entry step + one step per call edge + the hazard line itself.
  ASSERT_EQ(heap->flow.size(), 5u);
  EXPECT_EQ(heap->flow.front().file, "src/core/pump.cc");
  EXPECT_NE(heap->flow.front().note.find("entry point"), std::string::npos);
  EXPECT_EQ(heap->flow.back().file, "src/common/helpers.cc");
  EXPECT_EQ(heap->flow.back().line, 19);
  // Interior steps are the call sites, in caller order.
  EXPECT_NE(heap->flow[1].note.find("calls"), std::string::npos);
  // A hazard in the entry point's own body is a one-function chain: the
  // message names the entry point instead of a call chain, and the flow is
  // [entry point, hazard].
  const Finding* direct = FindByKey(
      findings, "src/core/pump.cc:23:NO_PER_UPDATE_TRANSCENDENTALS");
  ASSERT_NE(direct, nullptr);
  EXPECT_NE(direct->message.find(
                "'exp' inside entry point Pump::ProcessUpdate()"),
            std::string::npos)
      << direct->message;
  EXPECT_EQ(direct->message.find("call chain"), std::string::npos)
      << direct->message;
  EXPECT_EQ(direct->flow,
            (std::vector<FlowStep>{
                {"src/core/pump.cc", 21,
                 "Pump::ProcessUpdate() is an entry point"},
                {"src/core/pump.cc", 23, "'exp' call"},
            }));
  // Findings of the token-pattern rules carry no flow (the fixture has
  // none, so check on a synthetic finding instead).
  EXPECT_TRUE((Finding{"f.cc", 1, "R", "m"}).flow.empty());
}

// The fixture closes a cross-TU cycle (StageTwo -> CycleBack -> StageTwo);
// completing at all proves the reachability walk terminates on cycles, and
// the chain test above proves the cycle does not distort shortest paths.

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

// ---- pump/: the sim pump and psi's chunk call are hot-path roots -------

TEST(NmcLintInterprocTest, FlagsHazardsBelowThePumpAndAssign) {
  const std::vector<Finding> findings = LintTree("pump");
  EXPECT_EQ(Keys(findings),
            (std::vector<std::string>{
                "src/sim/harness.cc:24:NO_HEAP_IN_HOT_PATH",
                "src/sim/harness.cc:32:NO_STATIC_LOCAL_IN_REENTRANT",
            }));
  const Finding* growth =
      FindByKey(findings, "src/sim/harness.cc:24:NO_HEAP_IN_HOT_PATH");
  ASSERT_NE(growth, nullptr);
  EXPECT_NE(growth->message.find("'runs.push_back'"), std::string::npos)
      << growth->message;
  EXPECT_NE(growth->message.find("[call chain: PumpChunk "
                                 "(src/sim/harness.cc:51) -> "
                                 "RecordRun (src/sim/harness.cc:23)]"),
            std::string::npos)
      << growth->message;
  const Finding* local = FindByKey(
      findings, "src/sim/harness.cc:32:NO_STATIC_LOCAL_IN_REENTRANT");
  ASSERT_NE(local, nullptr);
  EXPECT_NE(local->message.find("Policy::Assign"), std::string::npos)
      << local->message;
}

// ---- chunk/: a ProcessChunk override is a hot-path root ----------------

TEST(NmcLintInterprocTest, FlagsGrowthBelowAProcessChunkOverride) {
  const std::vector<Finding> findings = LintTree("chunk");
  EXPECT_EQ(Keys(findings),
            (std::vector<std::string>{
                "src/core/counter.cc:46:NO_HEAP_IN_HOT_PATH",
                "src/core/counter.cc:48:NO_HEAP_IN_HOT_PATH",
            }));
  const Finding* push =
      FindByKey(findings, "src/core/counter.cc:46:NO_HEAP_IN_HOT_PATH");
  ASSERT_NE(push, nullptr);
  EXPECT_NE(push->message.find("'runs_.push_back'"), std::string::npos)
      << push->message;
  EXPECT_NE(push->message.find("[call chain: Counter::ProcessChunk"),
            std::string::npos)
      << push->message;
  const Finding* emplace =
      FindByKey(findings, "src/core/counter.cc:48:NO_HEAP_IN_HOT_PATH");
  ASSERT_NE(emplace, nullptr);
  EXPECT_NE(emplace->message.find("'staged_.emplace_back'"), std::string::npos)
      << emplace->message;
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
