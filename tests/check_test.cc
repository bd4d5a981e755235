// Pins the exact text a failed NMC_CHECK prints: the failure path is one
// shared out-of-line function fed a per-site record, and this is the one
// place that says what that function must write.

#include "common/check.h"

#include <string>

#include <gtest/gtest.h>

namespace nmc::common {
namespace {

/// The whole of stderr a failed check at `line` of this file may write, as
/// an anchored regex: the message is pinned byte for byte.
std::string WholeMessage(int line, const std::string& text) {
  const std::string literal = std::string("NMC_CHECK failed at ") + __FILE__ +
                              ":" + std::to_string(line) + ": " + text;
  std::string regex = "^";
  for (const char c : literal) {
    if (std::string("\\^$.|?*+()[]{}").find(c) != std::string::npos) {
      regex += '\\';
    }
    regex += c;
  }
  return regex + "\n$";
}

class CheckDeathTest : public ::testing::Test {
 protected:
  // Re-executes the binary for each death test instead of forking a
  // threaded process, so the sanitizer builds run these too.
  void SetUp() override {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

TEST_F(CheckDeathTest, FailedCheckPrintsFileLineAndExpression) {
  const int line = __LINE__ + 1;
  EXPECT_DEATH(NMC_CHECK(false), WholeMessage(line, "false"));
}

TEST_F(CheckDeathTest, FailedComparisonPrintsBothOperands) {
  const int line = __LINE__ + 1;
  EXPECT_DEATH(NMC_CHECK_EQ(1, 2), WholeMessage(line, "1 == 2"));
}

TEST(CheckTest, PassingChecksDoNothing) {
  int evaluations = 0;
  NMC_CHECK(++evaluations == 1);
  NMC_CHECK_LT(evaluations, 2);
  EXPECT_EQ(evaluations, 1);
}

}  // namespace
}  // namespace nmc::common
