// nmc_race — deterministic interleaving model checker for the repo's
// lock-free primitives (SpscQueue, Seqlock) and the C++11 memory model
// they rely on.
//
// Usage:
//   nmc_race --list
//   nmc_race [--test=NAME|all] [--preemption-bound=N] [--max-executions=N]
//   nmc_race --test=NAME --replay=SCHEDULE [--weaken=SITE]
//   nmc_race --mutate=SITE|all
//
// Exit codes:
//   0  clean: every requested exploration completed with zero violations
//      (for --mutate: every declared (case, site) mutant was killed and
//      replay-confirmed)
//   1  violation found (the minimal failing schedule is printed)
//   2  usage error (unknown flag, unknown test/site name)
//   3  execution budget exhausted before the schedule space was covered
//   4  a mutant survived: weakening the site produced no violation
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/atomic_policy.h"
#include "nmc_race/litmus.h"
#include "nmc_race/runtime.h"

namespace {

using nmc::race::ExploreResult;
using nmc::race::FindLitmus;
using nmc::race::LitmusCase;
using nmc::race::LitmusSuite;
using nmc::race::LitmusVerdict;
using nmc::race::MutateSite;
using nmc::race::MutationOutcome;
using nmc::race::ParseSiteName;
using nmc::race::RunLitmus;
using nmc::race::SiteName;
using nmc::common::OrderSite;

constexpr int kExitClean = 0;
constexpr int kExitViolation = 1;
constexpr int kExitUsage = 2;
constexpr int kExitBudget = 3;
constexpr int kExitMutantSurvived = 4;

void PrintUsage(FILE* out) {
  std::fprintf(out,
               "usage: nmc_race [--list] [--test=NAME|all] [--mutate=SITE|all]\n"
               "                [--replay=SCHEDULE] [--weaken=SITE]\n"
               "                [--preemption-bound=N] [--max-executions=N]\n"
               "exit codes: 0 clean, 1 violation, 2 usage, 3 budget "
               "exhausted, 4 mutant survived\n");
}

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int ListCommand() {
  std::printf("litmus cases:\n");
  for (const LitmusCase& litmus : LitmusSuite()) {
    std::printf("  %-18s %s\n", litmus.name.c_str(),
                litmus.description.c_str());
  }
  std::printf("order sites (for --mutate / --weaken):\n");
  for (uint32_t i = 0; i < static_cast<uint32_t>(OrderSite::kCount); ++i) {
    std::printf("  %s\n", SiteName(static_cast<OrderSite>(i)));
  }
  return kExitClean;
}

/// Runs one litmus case and prints the verdict; returns its exit code.
int RunOne(const LitmusCase& litmus, OrderSite weakened,
           const std::string& replay, int preemption_override,
           uint64_t max_executions_override) {
  LitmusCase effective = litmus;
  if (preemption_override != -2) {
    effective.base.preemption_bound = preemption_override;
    effective.base.sleep_sets = preemption_override < 0;
  }
  if (max_executions_override != 0) {
    effective.base.max_executions = max_executions_override;
  }
  const LitmusVerdict verdict = RunLitmus(effective, weakened, replay);
  const ExploreResult& result = verdict.result;
  if (verdict.passed) {
    std::printf("PASS %-18s executions=%llu outcomes=%zu%s\n",
                litmus.name.c_str(),
                static_cast<unsigned long long>(result.executions),
                result.outcomes.size(),
                weakened != OrderSite::kCount ? " (weakened, violation as expected)"
                                              : "");
    return kExitClean;
  }
  std::printf("FAIL %-18s %s\n", litmus.name.c_str(), verdict.detail.c_str());
  if (result.violation && !result.schedule.empty()) {
    std::printf("     repro: nmc_race --test=%s --replay=%s%s%s\n",
                litmus.name.c_str(), result.schedule.c_str(),
                weakened != OrderSite::kCount ? " --weaken=" : "",
                weakened != OrderSite::kCount ? SiteName(weakened) : "");
  }
  if (!result.violation && result.budget_exhausted) return kExitBudget;
  return kExitViolation;
}

int MutateCommand(const std::string& which) {
  std::vector<OrderSite> sites;
  if (which == "all") {
    for (uint32_t i = 0; i < static_cast<uint32_t>(OrderSite::kCount); ++i) {
      sites.push_back(static_cast<OrderSite>(i));
    }
  } else {
    OrderSite site = OrderSite::kCount;
    if (!ParseSiteName(which, &site)) {
      std::fprintf(stderr, "nmc_race: unknown order site '%s'\n",
                   which.c_str());
      return kExitUsage;
    }
    sites.push_back(site);
  }
  int exit_code = kExitClean;
  for (const OrderSite site : sites) {
    for (const MutationOutcome& outcome : MutateSite(site)) {
      if (outcome.killed && outcome.replay_confirmed) {
        std::printf("KILLED   %-22s by %-17s schedule=%s\n",
                    SiteName(outcome.site), outcome.litmus.c_str(),
                    outcome.schedule.c_str());
      } else if (outcome.killed) {
        std::printf("UNSTABLE %-22s by %-17s violation found but replay "
                    "diverged\n",
                    SiteName(outcome.site), outcome.litmus.c_str());
        exit_code = kExitMutantSurvived;
      } else {
        std::printf("SURVIVED %-22s (%s explored clean with the site "
                    "weakened to relaxed)\n",
                    SiteName(outcome.site), outcome.litmus.c_str());
        exit_code = kExitMutantSurvived;
      }
    }
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  bool list = false;
  std::string test_name;
  std::string mutate;
  std::string replay;
  std::string weaken;
  int preemption_override = -2;  // -2 = keep the case's tuned bound
  uint64_t max_executions_override = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--list") {
      list = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return kExitClean;
    } else if (ParseFlag(arg, "test", &value)) {
      test_name = value;
    } else if (ParseFlag(arg, "mutate", &value)) {
      mutate = value;
    } else if (ParseFlag(arg, "replay", &value)) {
      replay = value;
    } else if (ParseFlag(arg, "weaken", &value)) {
      weaken = value;
    } else if (ParseFlag(arg, "preemption-bound", &value)) {
      preemption_override = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "max-executions", &value)) {
      max_executions_override = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "nmc_race: unknown argument '%s'\n", arg.c_str());
      PrintUsage(stderr);
      return kExitUsage;
    }
  }

  if (list) return ListCommand();
  if (!mutate.empty()) return MutateCommand(mutate);

  OrderSite weakened = OrderSite::kCount;
  if (!weaken.empty() && !ParseSiteName(weaken, &weakened)) {
    std::fprintf(stderr, "nmc_race: unknown order site '%s'\n",
                 weaken.c_str());
    return kExitUsage;
  }
  if (!replay.empty() && (test_name.empty() || test_name == "all")) {
    std::fprintf(stderr, "nmc_race: --replay requires --test=NAME\n");
    return kExitUsage;
  }

  if (test_name.empty()) test_name = "all";
  if (test_name == "all") {
    int exit_code = kExitClean;
    for (const LitmusCase& litmus : LitmusSuite()) {
      const int code = RunOne(litmus, weakened, replay, preemption_override,
                              max_executions_override);
      if (code != kExitClean && exit_code == kExitClean) exit_code = code;
    }
    return exit_code;
  }
  const LitmusCase* litmus = FindLitmus(test_name);
  if (litmus == nullptr) {
    std::fprintf(stderr, "nmc_race: unknown test '%s' (see --list)\n",
                 test_name.c_str());
    return kExitUsage;
  }
  return RunOne(*litmus, weakened, replay, preemption_override,
                max_executions_override);
}
