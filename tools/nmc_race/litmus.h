#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/atomic_policy.h"
#include "nmc_race/runtime.h"

namespace nmc::race {

/// One litmus test: a model-checked scenario plus the exploration config
/// it is tuned for and the contract it pins.
struct LitmusCase {
  std::string name;
  std::string description;
  /// Tuned exploration config (preemption bound, sleep sets, budgets).
  /// Weakened site / replay string are layered on top by the runner.
  ExploreOptions base;
  /// The body handed to Explore(): builds state, registers threads, runs,
  /// asserts, records outcomes.
  std::function<void(Runtime&)> test;
  /// When non-empty: the exact outcome set the memory model must produce
  /// (sorted); a mismatch fails the case even with zero violations.
  std::vector<std::string> expected_outcomes;
  /// True for negative self-tests that must *detect* a seeded defect (the
  /// case passes iff the exploration reports a violation).
  bool expect_violation = false;
  /// Sites whose release→relaxed weakening this case refutes — the
  /// mutation matrix runs every (case, site) pair declared here.
  std::vector<common::OrderSite> kills;
};

const std::vector<LitmusCase>& LitmusSuite();

/// nullptr when no case has that name.
const LitmusCase* FindLitmus(const std::string& name);

struct LitmusVerdict {
  bool passed = false;
  ExploreResult result;
  /// Human-readable failure reason (outcome-set diff, violation text...).
  std::string detail;
};

/// Runs one case: `weakened` (kCount = none) and `replay` are layered onto
/// the case's tuned base options.
LitmusVerdict RunLitmus(const LitmusCase& litmus, common::OrderSite weakened,
                        const std::string& replay);

/// One (case, site) pair of the mutation matrix.
struct MutationOutcome {
  common::OrderSite site = common::OrderSite::kCount;
  /// Which litmus case was run with the site weakened.
  std::string litmus;
  /// The mutant is killed when the run reports a violation AND replaying
  /// its non-empty schedule deterministically reproduces it.
  bool killed = false;
  bool replay_confirmed = false;
  std::string schedule;
  std::string message;
};

/// Weakens `site` to relaxed under every case that declares it in `kills`
/// and demands each fail with a replay-confirmed schedule; one outcome per
/// declaring case, in suite order. Every site has at least one.
std::vector<MutationOutcome> MutateSite(common::OrderSite site);

}  // namespace nmc::race
