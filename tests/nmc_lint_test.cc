// Fixture tests for tools/nmc_lint: every rule must (a) fire on the seeded
// violations at exactly the expected line, and (b) stay silent on the
// documented near-misses sharing the file. Expectations are embedded in
// the fixtures themselves as `EXPECT: RULE` (this line) and
// `EXPECT-NEXT: RULE` (next line) markers, so the fixture and its
// assertions cannot drift apart.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "nmc_lint/lint.h"

namespace nmc {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(NMC_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

using LineRule = std::pair<int, std::string>;

/// Extracts (line, rule) expectations from EXPECT / EXPECT-NEXT markers.
std::vector<LineRule> ParseExpectations(const std::string& content) {
  static const std::regex kMarker(R"(EXPECT(-NEXT)?:\s*([A-Z_]+(?:\s*,\s*[A-Z_]+)*))");
  std::vector<LineRule> expected;
  std::istringstream lines(content);
  std::string line;
  int line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    std::smatch match;
    if (!std::regex_search(line, match, kMarker)) continue;
    const int target = match[1].matched ? line_number + 1 : line_number;
    std::stringstream rule_list(match[2].str());
    std::string rule;
    while (std::getline(rule_list, rule, ',')) {
      const size_t begin = rule.find_first_not_of(" \t");
      const size_t end = rule.find_last_not_of(" \t");
      expected.emplace_back(target, rule.substr(begin, end - begin + 1));
    }
  }
  std::sort(expected.begin(), expected.end());
  return expected;
}

std::vector<LineRule> Actual(const std::vector<lint::Finding>& findings) {
  std::vector<LineRule> actual;
  for (const lint::Finding& finding : findings) {
    EXPECT_FALSE(finding.message.empty())
        << finding.rule << " finding carries no message";
    actual.emplace_back(finding.line, finding.rule);
  }
  std::sort(actual.begin(), actual.end());
  return actual;
}

std::string Describe(const std::vector<LineRule>& pairs) {
  std::string out;
  for (const auto& [line, rule] : pairs) {
    out += "  line " + std::to_string(line) + ": " + rule + "\n";
  }
  return out.empty() ? "  (none)\n" : out;
}

/// Lints `fixture` as if it lived at `pretend_path` and requires the
/// findings to match the fixture's embedded EXPECT markers exactly.
void CheckFixture(const std::string& fixture,
                  const std::string& pretend_path) {
  const std::string content = ReadFixture(fixture);
  const std::vector<LineRule> expected = ParseExpectations(content);
  const std::vector<LineRule> actual =
      Actual(lint::LintContent(pretend_path, content));
  EXPECT_EQ(expected, actual)
      << fixture << " as " << pretend_path << "\nexpected:\n"
      << Describe(expected) << "actual:\n"
      << Describe(actual);
}

TEST(NmcLintTest, NoUnseededRng) {
  CheckFixture("no_unseeded_rng.cc", "src/core/fixture.cc");
}

TEST(NmcLintTest, NoWallclockInSim) {
  CheckFixture("no_wallclock_in_sim.cc", "src/sim/fixture.cc");
}

TEST(NmcLintTest, WallclockAllowedInBenchLayer) {
  // The same file at src/bench/ is entirely legal: that layer owns timing.
  const std::string content = ReadFixture("no_wallclock_in_sim.cc");
  const auto findings = lint::LintContent("src/bench/fixture.cc", content);
  EXPECT_TRUE(findings.empty()) << Describe(Actual(findings));
}

TEST(NmcLintTest, NoUnorderedIterationInProtocol) {
  CheckFixture("no_unordered_iteration.cc", "src/hyz/fixture.cc");
}

TEST(NmcLintTest, UnorderedIterationAllowedOutsideProtocolDirs) {
  // src/common is not protocol code — iteration order there cannot reach a
  // message schedule, so the same content is clean.
  const std::string content = ReadFixture("no_unordered_iteration.cc");
  const auto findings = lint::LintContent("src/common/fixture.cc", content);
  EXPECT_TRUE(findings.empty()) << Describe(Actual(findings));
}

TEST(NmcLintTest, NoMapInHotPath) {
  CheckFixture("no_map_in_hot_path.cc", "src/sim/fixture.cc");
}

TEST(NmcLintTest, NoIostreamInLib) {
  CheckFixture("no_iostream_in_lib.cc", "src/core/fixture.cc");
}

TEST(NmcLintTest, IncludeHygiene) {
  CheckFixture("include_hygiene.cc", "src/streams/fixture.cc");
}

TEST(NmcLintTest, MissingPragmaOnce) {
  CheckFixture("missing_pragma_once.h", "src/sim/missing_pragma_once.h");
}

TEST(NmcLintTest, CompliantHeaderIsSilent) {
  CheckFixture("pragma_once_ok.h", "src/sim/pragma_once_ok.h");
}

TEST(NmcLintTest, NoMutableGlobalState) {
  CheckFixture("mutable_state.cc", "src/common/fixture.cc");
}

TEST(NmcLintTest, MutableStateFindingsNameTheState) {
  const std::string content = ReadFixture("mutable_state.cc");
  const auto findings = lint::LintContent("src/common/fixture.cc", content);
  ASSERT_EQ(findings.size(), 4u) << Describe(Actual(findings));
  const char* named[] = {"namespace-scope variable 'g_mutable_counter'",
                         "static data member 'Box::live_count_'",
                         "function-local static 'serial' in Box::Next()",
                         "function-local static 'calls' in CountCall()"};
  for (size_t i = 0; i < findings.size(); ++i) {
    EXPECT_NE(findings[i].message.find(named[i]), std::string::npos)
        << findings[i].message;
  }
  // bench/tests/tools binaries own their process; the rule is src/ only.
  EXPECT_TRUE(lint::LintContent("tests/fixture.cc", content).empty());
  EXPECT_TRUE(lint::LintContent("tools/fixture.cc", content).empty());
}

TEST(NmcLintTest, AllowAnnotationHygiene) {
  CheckFixture("allow_annotations.cc", "src/core/fixture.cc");
}

TEST(NmcLintTest, RawStringLiteralsAreInvisible) {
  // Regression for the pre-lexer scanner, which closed R"x(...)x" at the
  // first ')"' and mis-counted lines across multi-line raw strings.
  CheckFixture("raw_string_literals.cc", "src/sim/fixture.cc");
}

TEST(NmcLintTest, AtomicsDiscipline) {
  // Outside the modeled-concurrency scope only the ordering rules apply;
  // the EXPECT-RUNTIME markers (raw-atomic findings) are invisible to the
  // expectation parser here.
  CheckFixture("atomics_discipline.cc", "src/core/fixture.cc");
}

TEST(NmcLintTest, RawAtomicsFlaggedInModeledConcurrencyScope) {
  // At src/runtime/ the raw std::atomic / bare-fence findings join in:
  // promote the fixture's EXPECT-RUNTIME markers to EXPECT and demand an
  // exact match again.
  std::string content = ReadFixture("atomics_discipline.cc");
  const std::string from = "EXPECT-RUNTIME:";
  for (size_t pos = content.find(from); pos != std::string::npos;
       pos = content.find(from, pos)) {
    content.replace(pos, from.size(), "EXPECT:");
  }
  const std::vector<LineRule> expected = ParseExpectations(content);
  const std::vector<LineRule> actual =
      Actual(lint::LintContent("src/runtime/fixture.cc", content));
  EXPECT_EQ(expected, actual) << "expected:\n"
                              << Describe(expected) << "actual:\n"
                              << Describe(actual);
}

TEST(NmcLintTest, RawAtomicsAllowedOutsideRuntime) {
  // src/common at large (the shim itself, simd dispatch) may spell
  // std::atomic — only the modeled files and src/runtime/ are restricted.
  const std::string content = ReadFixture("atomics_discipline.cc");
  for (const lint::Finding& finding :
       lint::LintContent("src/common/fixture.cc", content)) {
    EXPECT_NE(finding.rule, "NO_RAW_ATOMIC_IN_RUNTIME")
        << lint::FormatFinding(finding);
  }
}

TEST(NmcLintTest, AtomicOrderRulesScopedToLibrary) {
  // tests/ and tools/ scaffolding may use defaulted seq_cst atomics.
  const std::string content = ReadFixture("atomics_discipline.cc");
  EXPECT_TRUE(lint::LintContent("tests/fixture.cc", content).empty());
  EXPECT_TRUE(lint::LintContent("tools/fixture.cc", content).empty());
}

TEST(NmcLintTest, RngRuleAppliesToTests) {
  // tests/ joined the determinism scope when repo-mode linting was
  // extended there: an unseeded RNG in a test makes the *check* itself
  // unreproducible. The fixture lints identically under tests/ and src/.
  CheckFixture("no_unseeded_rng.cc", "tests/fixture.cc");
}

TEST(NmcLintTest, PathsOutsideRepoCodeAreIgnored) {
  const std::string content = ReadFixture("no_unseeded_rng.cc");
  EXPECT_TRUE(lint::LintContent("examples/fixture.cc", content).empty());
  EXPECT_TRUE(lint::LintContent("build/generated.cc", content).empty());
}

TEST(NmcLintTest, EveryEmittedRuleIsRegistered) {
  // The --list-rules registry and annotation validation depend on Rules()
  // covering everything LintContent can emit.
  const char* fixtures[] = {
      "no_unseeded_rng.cc",    "no_wallclock_in_sim.cc",
      "no_unordered_iteration.cc", "no_map_in_hot_path.cc",
      "no_iostream_in_lib.cc", "include_hygiene.cc",
      "missing_pragma_once.h", "allow_annotations.cc",
      "atomics_discipline.cc", "mutable_state.cc",
  };
  std::vector<std::string> registered;
  for (const lint::RuleInfo& rule : lint::Rules()) {
    registered.push_back(rule.id);
  }
  for (const char* fixture : fixtures) {
    for (const lint::Finding& finding :
         lint::LintContent("src/sim/f.cc", ReadFixture(fixture))) {
      EXPECT_NE(std::find(registered.begin(), registered.end(), finding.rule),
                registered.end())
          << finding.rule << " is not in Rules()";
    }
  }
}

// ---- LINT_IO: inputs the linter cannot read ----------------------------

TEST(NmcLintTest, UnreadableFileIsOneLintIoFinding) {
  // A compile database can name a translation unit that is not on disk;
  // the repo run reports it instead of skipping it.
  const std::string root = ::testing::TempDir() + "nmc_lint_io_root";
  const std::string database = ::testing::TempDir() + "nmc_lint_io_db.json";
  std::ofstream(database) << "[{\"file\": \"" << root
                          << "/src/sim/no_such_file.cc\"}]\n";
  lint::RepoLintOptions options;
  options.repo_root = root;
  options.compile_commands = database;
  options.roots = {"src"};
  size_t files_linted = 0;
  const std::vector<lint::Finding> findings =
      lint::LintRepo(options, &files_linted);
  std::remove(database.c_str());
  EXPECT_EQ(files_linted, 1u);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/sim/no_such_file.cc");
  EXPECT_EQ(findings[0].line, 0);
  EXPECT_EQ(findings[0].rule, "LINT_IO");
}

TEST(NmcLintTest, RejectedLayerSpecIsALintIoFinding) {
  const std::string spec_path = ::testing::TempDir() + "nmc_lint_bad_spec.txt";
  std::ofstream(spec_path) << "layer\n";  // a layer with no path prefixes
  lint::RepoLintOptions options;
  options.repo_root = std::string(NMC_LINT_FIXTURE_DIR) + "/layers";
  options.roots = {"base"};
  options.layers_path = spec_path;
  std::vector<lint::Finding> io;
  for (const lint::Finding& finding : lint::LintRepo(options)) {
    if (finding.rule == "LINT_IO") io.push_back(finding);
  }
  std::remove(spec_path.c_str());
  ASSERT_EQ(io.size(), 1u);
  EXPECT_EQ(io[0].file, spec_path);
  EXPECT_EQ(io[0].message.rfind("layer spec rejected: ", 0), 0u)
      << io[0].message;
}

TEST(NmcLintTest, FormatFindingIsStable) {
  const lint::Finding finding{"src/sim/network.cc", 42, "NO_MAP_IN_HOT_PATH",
                              "node-based container"};
  EXPECT_EQ(lint::FormatFinding(finding),
            "src/sim/network.cc:42: NO_MAP_IN_HOT_PATH: node-based container");
}

}  // namespace
}  // namespace nmc
