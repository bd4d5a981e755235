// Tests for the nmc_race model checker itself: the memory model's pinned
// outcome sets, the replayability of failing schedules, and the soundness
// of sleep-set pruning. The full litmus suite and the mutation matrix run
// once, as the nmc_race_litmus / nmc_race_mutation ctests over the CLI
// (tools/nmc_race/CMakeLists.txt).
#include <cstdint>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/atomic_policy.h"
#include "nmc_race/litmus.h"
#include "nmc_race/model_atomic.h"
#include "nmc_race/runtime.h"

namespace nmc::race {
namespace {

using common::OrderSite;

ExploreOptions Unbounded() {
  ExploreOptions options;
  options.preemption_bound = -1;
  options.sleep_sets = true;
  return options;
}

// ---- memory-model self-tests: the model must produce exactly the C++11
// outcome sets (minus the LB reordering an interleaving model cannot
// exhibit) ----------------------------------------------------------------

struct OutcomeCase {
  const char* litmus;
  std::set<std::string> want;
};

class LitmusOutcomeTest : public ::testing::TestWithParam<OutcomeCase> {};

TEST_P(LitmusOutcomeTest, PinsOutcomeSet) {
  const OutcomeCase& param = GetParam();
  const LitmusCase* litmus = FindLitmus(param.litmus);
  ASSERT_NE(litmus, nullptr) << param.litmus;
  const ExploreResult result = Explore(litmus->base, litmus->test);
  EXPECT_TRUE(result.complete) << "exploration must cover the full space";
  EXPECT_FALSE(result.violation) << result.message;
  EXPECT_EQ(result.outcomes, param.want);
}

INSTANTIATE_TEST_SUITE_P(
    MemoryModel, LitmusOutcomeTest,
    ::testing::Values(
        // Store buffering: 0/0 (both loads stale) is allowed by relaxed
        // AND release/acquire; only seq_cst forbids it.
        OutcomeCase{"sb-relaxed", {"0/0", "0/1", "1/0", "1/1"}},
        OutcomeCase{"sb-acqrel", {"0/0", "0/1", "1/0", "1/1"}},
        OutcomeCase{"sb-seqcst", {"0/1", "1/0", "1/1"}},
        // Message passing: a relaxed flag admits the stale-data read 1/0;
        // release/acquire forbids it.
        OutcomeCase{"mp-relaxed", {"0/42", "1/0", "1/1"}},
        OutcomeCase{"mp-acqrel", {"0/42", "1/1"}},
        // Load buffering: C++11 allows 1/1 but no interleaving-based model
        // (loom included) can exhibit it — this pins that boundary so a
        // future model change that silently *starts* claiming 1/1 (or
        // stops exploring the others) is caught.
        OutcomeCase{"lb-relaxed", {"0/0", "0/1", "1/0"}}),
    [](const ::testing::TestParamInfo<OutcomeCase>& param_info) {
      std::string name = param_info.param.litmus;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(NmcRaceModelTest, DetectsPlainMemoryRaceBehindRelaxedFlag) {
  const LitmusCase* litmus = FindLitmus("mp-race-relaxed");
  ASSERT_NE(litmus, nullptr);
  const ExploreResult result = Explore(litmus->base, litmus->test);
  EXPECT_TRUE(result.violation);
  EXPECT_NE(result.message.find("data race"), std::string::npos)
      << result.message;
  EXPECT_FALSE(result.schedule.empty());
}

TEST(NmcRaceModelTest, AcquireReleaseFlagMakesThePayloadRaceFree) {
  const LitmusCase* litmus = FindLitmus("mp-race-acqrel");
  ASSERT_NE(litmus, nullptr);
  const ExploreResult result = Explore(litmus->base, litmus->test);
  EXPECT_FALSE(result.violation) << result.message;
  EXPECT_TRUE(result.complete);
}

// Sleep-set pruning must be sound: the pruned exploration of a litmus test
// must produce the same outcome set as the exhaustive one.
TEST(NmcRaceModelTest, SleepSetPruningPreservesOutcomes) {
  const LitmusCase* litmus = FindLitmus("sb-relaxed");
  ASSERT_NE(litmus, nullptr);
  ExploreOptions pruned = Unbounded();
  ExploreOptions exhaustive = Unbounded();
  exhaustive.sleep_sets = false;
  const ExploreResult with_sleep = Explore(pruned, litmus->test);
  const ExploreResult without_sleep = Explore(exhaustive, litmus->test);
  EXPECT_EQ(with_sleep.outcomes, without_sleep.outcomes);
  EXPECT_LE(with_sleep.executions, without_sleep.executions)
      << "sleep sets may only prune, never add, executions";
}

// ---- replay determinism -------------------------------------------------

// The schedule string printed for a violation must re-run to the identical
// failure: same message, same rendered schedule. This is the golden
// "minimal deterministic repro" contract of the tool.
TEST(NmcRaceReplayTest, FailingScheduleReplaysToIdenticalState) {
  const LitmusCase* litmus = FindLitmus("seqlock-torn");
  ASSERT_NE(litmus, nullptr);
  ExploreOptions options = litmus->base;
  options.weakened = OrderSite::kSeqlockWriteFence;
  const ExploreResult first = Explore(options, litmus->test);
  ASSERT_TRUE(first.violation)
      << "weakening the write fence must produce a torn read";
  ASSERT_FALSE(first.schedule.empty());

  options.replay = first.schedule;
  const ExploreResult replayed = Explore(options, litmus->test);
  EXPECT_TRUE(replayed.violation);
  EXPECT_EQ(replayed.executions, 1u) << "replay runs exactly one execution";
  EXPECT_EQ(replayed.message, first.message);
  EXPECT_EQ(replayed.schedule, first.schedule);
}

// Replaying a mutant's schedule WITHOUT the weakening must not reproduce
// the mutant's failure: either the execution is clean, or the replay
// reports a divergence (the weakening changed which stale stores were
// admissible, so the visibility tokens no longer apply). Either way the
// original torn-read/race message must not come back — the failure is
// caused by the mutation, not by the schedule.
TEST(NmcRaceReplayTest, MutantFailureDoesNotReproduceOnCleanSources) {
  const LitmusCase* litmus = FindLitmus("seqlock-torn");
  ASSERT_NE(litmus, nullptr);
  ExploreOptions options = litmus->base;
  options.weakened = OrderSite::kSeqlockWriteRelease;
  const ExploreResult weakened = Explore(options, litmus->test);
  ASSERT_TRUE(weakened.violation);

  ExploreOptions clean = litmus->base;
  clean.replay = weakened.schedule;
  const ExploreResult replayed = Explore(clean, litmus->test);
  if (replayed.violation) {
    EXPECT_NE(replayed.message.find("replay diverged"), std::string::npos)
        << "clean sources reproduced the mutant's failure: "
        << replayed.message;
  }
}

TEST(NmcRaceReplayTest, MalformedScheduleIsReportedNotCrashed) {
  const LitmusCase* litmus = FindLitmus("sb-relaxed");
  ASSERT_NE(litmus, nullptr);
  ExploreOptions options = litmus->base;
  options.replay = "t1,zz,v0";
  const ExploreResult result = Explore(options, litmus->test);
  EXPECT_TRUE(result.violation);
  EXPECT_NE(result.message.find("schedule"), std::string::npos)
      << result.message;
}

// ---- the litmus suite as shipped ---------------------------------------

TEST(NmcRaceSuiteTest, EveryCaseHasADescriptionAndUniqueName) {
  std::set<std::string> names;
  for (const LitmusCase& litmus : LitmusSuite()) {
    EXPECT_TRUE(names.insert(litmus.name).second)
        << "duplicate litmus name " << litmus.name;
    EXPECT_FALSE(litmus.description.empty()) << litmus.name;
  }
  EXPECT_GE(names.size(), 14u);
}

TEST(NmcRaceSuiteTest, SiteNamesRoundTrip) {
  for (uint32_t i = 0; i < static_cast<uint32_t>(OrderSite::kCount); ++i) {
    const auto site = static_cast<OrderSite>(i);
    OrderSite parsed = OrderSite::kCount;
    ASSERT_TRUE(ParseSiteName(SiteName(site), &parsed)) << SiteName(site);
    EXPECT_EQ(parsed, site);
  }
  OrderSite ignored;
  EXPECT_FALSE(ParseSiteName("not-a-site", &ignored));
}

}  // namespace
}  // namespace nmc::race
