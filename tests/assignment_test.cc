#include "sim/assignment.h"

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace nmc::sim {
namespace {

TEST(RoundRobinTest, Cycles) {
  RoundRobinAssignment psi(3);
  EXPECT_EQ(psi.NextSite(0, 1.0), 0);
  EXPECT_EQ(psi.NextSite(1, 1.0), 1);
  EXPECT_EQ(psi.NextSite(2, 1.0), 2);
  EXPECT_EQ(psi.NextSite(3, 1.0), 0);
  EXPECT_EQ(psi.NextSite(301, -1.0), 1);
}

TEST(SingleSiteTest, AlwaysTarget) {
  SingleSiteAssignment psi(4, 2);
  for (int64_t t = 0; t < 20; ++t) EXPECT_EQ(psi.NextSite(t, 1.0), 2);
}

TEST(UniformRandomTest, InRangeAndRoughlyBalanced) {
  UniformRandomAssignment psi(4, 123);
  std::vector<int64_t> counts(4, 0);
  const int n = 40000;
  for (int64_t t = 0; t < n; ++t) {
    const int s = psi.NextSite(t, 1.0);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    ++counts[static_cast<size_t>(s)];
  }
  for (int64_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.25, 0.01);
  }
}

TEST(BlockCyclicTest, BlocksThenCycles) {
  BlockCyclicAssignment psi(2, 3);
  std::vector<int> expected{0, 0, 0, 1, 1, 1, 0, 0, 0};
  for (size_t t = 0; t < expected.size(); ++t) {
    EXPECT_EQ(psi.NextSite(static_cast<int64_t>(t), 1.0), expected[t]);
  }
}

TEST(SignSplitTest, RoutesByValueSign) {
  SignSplitAssignment psi(4);
  // Positives cycle over {0, 1}; negatives over {2, 3}.
  EXPECT_EQ(psi.NextSite(0, 1.0), 0);
  EXPECT_EQ(psi.NextSite(1, -1.0), 2);
  EXPECT_EQ(psi.NextSite(2, 1.0), 1);
  EXPECT_EQ(psi.NextSite(3, 1.0), 0);
  EXPECT_EQ(psi.NextSite(4, -1.0), 3);
  EXPECT_EQ(psi.NextSite(5, -1.0), 2);
}

TEST(SignSplitTest, SingleSiteDegenerates) {
  SignSplitAssignment psi(1);
  EXPECT_EQ(psi.NextSite(0, 1.0), 0);
  EXPECT_EQ(psi.NextSite(1, -1.0), 0);
}

TEST(SignSplitTest, OddSiteCountSplits) {
  SignSplitAssignment psi(3);  // half = 1: positives -> {0}, negatives -> {1, 2}
  EXPECT_EQ(psi.NextSite(0, 1.0), 0);
  EXPECT_EQ(psi.NextSite(1, 1.0), 0);
  EXPECT_EQ(psi.NextSite(2, -1.0), 1);
  EXPECT_EQ(psi.NextSite(3, -1.0), 2);
  EXPECT_EQ(psi.NextSite(4, -1.0), 1);
}

TEST(ZeroCrossingTest, HopsExactlyAtCrossings) {
  ZeroCrossingAssignment psi(3);
  // Prefix sums: 1, 0*, 1, 2, 1, 0*, -1, -2, -1, 0* — hops at the *.
  const std::vector<double> values{1, -1, 1, 1, -1, -1, -1, -1, 1, 1};
  const std::vector<int> expected{0, 1, 1, 1, 1, 2, 2, 2, 2, 0};
  for (size_t t = 0; t < values.size(); ++t) {
    EXPECT_EQ(psi.NextSite(static_cast<int64_t>(t), values[t]), expected[t])
        << "t=" << t;
  }
}

TEST(ZeroCrossingTest, NoCrossingNoHop) {
  ZeroCrossingAssignment psi(4);
  for (int t = 0; t < 50; ++t) EXPECT_EQ(psi.NextSite(t, 1.0), 0);
}

constexpr const char* kPolicyNames[] = {"round_robin", "random",
                                        "single",      "block",
                                        "sign_split",  "zero_crossing"};

TEST(MakeAssignmentTest, KnownNames) {
  for (const char* name : kPolicyNames) {
    auto psi = MakeAssignment(name, 4, 7);
    ASSERT_NE(psi, nullptr) << name;
    const int s = psi->NextSite(0, 1.0);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 4);
  }
}

TEST(MakeAssignmentTest, UnknownNameIsNull) {
  EXPECT_EQ(MakeAssignment("nope", 4, 7), nullptr);
}

// ---- Assign over chunks == NextSite per update ---------------------------

/// `name`'s policy, except that "block" takes an explicit block size
/// (MakeAssignment fixes it at 64).
std::unique_ptr<AssignmentPolicy> MakePolicy(const std::string& name, int k,
                                             int64_t block_size) {
  if (name == "block") {
    return std::make_unique<BlockCyclicAssignment>(k, block_size);
  }
  return MakeAssignment(name, k, /*seed=*/31);
}

/// Values from {-2, -1, -0.5, 0, 0.5, 1, 2} with a small bias, so the
/// prefix sum wanders across zero (zero_crossing hops) and both signs and
/// exact zeros reach sign_split.
std::vector<double> MixedSignStream(int64_t n, uint64_t seed) {
  static constexpr double kValues[] = {-2, -1, -0.5, 0, 0.5, 1, 2, 1};
  common::Rng rng(seed);
  std::vector<double> values(static_cast<size_t>(n));
  for (double& v : values) v = kValues[rng.UniformInt(0, 7)];
  return values;
}

/// Random chunk lengths that add up to n: a quarter of them one item long,
/// the rest in [1, 300], so chunks cut runs at arbitrary points.
std::vector<int64_t> ChunkLengths(int64_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<int64_t> lengths;
  for (int64_t covered = 0; covered < n;) {
    const int64_t want = rng.UniformInt(0, 3) == 0 ? 1 : rng.UniformInt(1, 300);
    lengths.push_back(std::min<int64_t>(want, n - covered));
    covered += lengths.back();
  }
  return lengths;
}

TEST(AssignChunkTest, MatchesNextSiteOverRandomChunkSplits) {
  const int64_t n = 6000;
  const std::vector<double> values = MixedSignStream(n, 5);
  uint64_t split_seed = 77;
  for (const char* name : kPolicyNames) {
    const std::vector<int64_t> block_sizes =
        std::string(name) == "block" ? std::vector<int64_t>{1, 3, 64, 100}
                                     : std::vector<int64_t>{64};
    for (int k : {1, 2, 3, 8}) {
      for (int64_t block : block_sizes) {
        SCOPED_TRACE(::testing::Message()
                     << name << " k=" << k << " block=" << block);
        auto per_update = MakePolicy(name, k, block);
        auto chunked = MakePolicy(name, k, block);
        ASSERT_NE(per_update, nullptr);
        std::vector<int> expected(static_cast<size_t>(n));
        for (int64_t t = 0; t < n; ++t) {
          expected[static_cast<size_t>(t)] =
              per_update->NextSite(t, values[static_cast<size_t>(t)]);
        }
        std::vector<int> got;
        int64_t t0 = 0;
        for (const int64_t len : ChunkLengths(n, split_seed++)) {
          // One slot more than the chunk needs: Assign must not touch it.
          std::vector<SiteRun> runs(static_cast<size_t>(len) + 1,
                                    SiteRun{-7, -7});
          const size_t count = chunked->Assign(
              t0,
              std::span<const double>(values).subspan(
                  static_cast<size_t>(t0), static_cast<size_t>(len)),
              std::span<SiteRun>(runs).first(static_cast<size_t>(len)));
          ASSERT_GE(count, 1u);
          ASSERT_LE(count, static_cast<size_t>(len));
          EXPECT_EQ(runs.back().site, -7);
          int64_t covered = 0;
          for (size_t r = 0; r < count; ++r) {
            const SiteRun& run = runs[r];
            ASSERT_GE(run.length, 1) << "run " << r;
            ASSERT_GE(run.site, 0) << "run " << r;
            ASSERT_LT(run.site, k) << "run " << r;
            if (r > 0) {
              ASSERT_NE(run.site, runs[r - 1].site) << "run " << r;
            }
            covered += run.length;
            got.insert(got.end(), static_cast<size_t>(run.length), run.site);
          }
          ASSERT_EQ(covered, len);
          t0 += len;
        }
        ASSERT_EQ(t0, n);
        ASSERT_EQ(got, expected);
      }
    }
  }
}

TEST(AssignChunkTest, BlockCyclicChunkStraddlesBlocks) {
  // A chunk that starts mid-block, spans several whole blocks and wraps
  // past site k - 1: one run per (partial) block.
  BlockCyclicAssignment psi(3, 4);
  const std::vector<double> values(14, 1.0);
  std::vector<SiteRun> runs(values.size());
  const size_t count = psi.Assign(6, values, runs);
  ASSERT_EQ(count, 4u);
  const std::vector<std::pair<int, int64_t>> want = {
      {1, 2}, {2, 4}, {0, 4}, {1, 4}};
  for (size_t r = 0; r < count; ++r) {
    EXPECT_EQ(runs[r].site, want[r].first) << "run " << r;
    EXPECT_EQ(runs[r].length, want[r].second) << "run " << r;
  }
}

TEST(AssignChunkTest, OneSiteIsOneRun) {
  // At k = 1 every policy sends the whole chunk to site 0 as one run.
  const std::vector<double> values = MixedSignStream(300, 9);
  for (const char* name : kPolicyNames) {
    auto psi = MakeAssignment(name, 1, 3);
    std::vector<SiteRun> runs(values.size());
    ASSERT_EQ(psi->Assign(17, values, runs), 1u) << name;
    EXPECT_EQ(runs[0].site, 0) << name;
    EXPECT_EQ(runs[0].length, 300) << name;
  }
}

TEST(AssignChunkTest, EmptyChunkIsNoRuns) {
  for (const char* name : kPolicyNames) {
    for (int k : {1, 3}) {
      auto psi = MakeAssignment(name, k, 3);
      EXPECT_EQ(psi->Assign(5, {}, {}), 0u) << name << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace nmc::sim
