#include "sim/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/nonmonotonic_counter.h"
#include "sim/protocol.h"
#include "streams/bernoulli.h"
#include "test_util.h"

namespace nmc::sim {
namespace {

// A protocol whose estimate is exact times a configurable bias; sends a
// fake message every `message_every` updates so the harness has stats to
// record.
class FakeProtocol : public Protocol {
 public:
  FakeProtocol(int num_sites, double bias, int64_t message_every)
      : num_sites_(num_sites), bias_(bias), message_every_(message_every) {}

  int num_sites() const override { return num_sites_; }

  void ProcessUpdate(int /*site_id*/, double value) override {
    sum_ += value;
    ++updates_;
    if (updates_ % message_every_ == 0) stats_.site_to_coordinator += 1;
  }

  double Estimate() const override { return sum_ * bias_; }

  const MessageStats& stats() const override { return stats_; }

 private:
  int num_sites_;
  double bias_;
  int64_t message_every_;
  double sum_ = 0.0;
  int64_t updates_ = 0;
  MessageStats stats_;
};

std::vector<double> UpDownStream() {
  // Climbs to 50 then back to 0, twice.
  std::vector<double> stream;
  for (int rep = 0; rep < 2; ++rep) {
    for (int i = 0; i < 50; ++i) stream.push_back(1.0);
    for (int i = 0; i < 50; ++i) stream.push_back(-1.0);
  }
  return stream;
}

TEST(HarnessTest, ExactProtocolHasNoViolations) {
  const auto stream = UpDownStream();
  FakeProtocol protocol(2, 1.0, 10);
  RoundRobinAssignment psi(2);
  TrackingOptions options;
  options.epsilon = 0.1;
  const TrackingResult result = RunTracking(stream, &psi, &protocol, options);
  EXPECT_EQ(result.n, 200);
  EXPECT_EQ(result.violation_steps, 0);
  EXPECT_FALSE(result.any_violation());
  EXPECT_EQ(result.max_rel_error, 0.0);
  EXPECT_EQ(result.messages, 20);
  EXPECT_DOUBLE_EQ(result.final_sum, 0.0);
  EXPECT_DOUBLE_EQ(result.final_estimate, 0.0);
}

TEST(HarnessTest, BiasWithinEpsilonIsAccepted) {
  const auto stream = UpDownStream();
  FakeProtocol protocol(1, 1.05, 1000);
  RoundRobinAssignment psi(1);
  TrackingOptions options;
  options.epsilon = 0.1;
  const TrackingResult result = RunTracking(stream, &psi, &protocol, options);
  EXPECT_EQ(result.violation_steps, 0);
  EXPECT_NEAR(result.max_rel_error, 0.05, 1e-9);
}

TEST(HarnessTest, BiasBeyondEpsilonViolatesAtEveryNonzeroStep) {
  const auto stream = UpDownStream();
  FakeProtocol protocol(1, 1.5, 1000);
  RoundRobinAssignment psi(1);
  TrackingOptions options;
  options.epsilon = 0.1;
  const TrackingResult result = RunTracking(stream, &psi, &protocol, options);
  // All steps except those with S == 0 (bias * 0 == 0) violate.
  int64_t zero_steps = 0;
  double sum = 0.0;
  for (double v : stream) {
    sum += v;
    if (sum == 0.0) ++zero_steps;
  }
  EXPECT_EQ(result.violation_steps, result.n - zero_steps);
  EXPECT_NEAR(result.max_rel_error, 0.5, 1e-9);
}

TEST(HarnessTest, RelErrorFloorExcludesSmallSums) {
  const auto stream = UpDownStream();
  FakeProtocol protocol(1, 1.2, 1000);
  RoundRobinAssignment psi(1);
  TrackingOptions options;
  options.epsilon = 0.5;  // bias never violates
  options.rel_error_floor = 1e9;  // excludes everything
  const TrackingResult result = RunTracking(stream, &psi, &protocol, options);
  EXPECT_EQ(result.violation_steps, 0);
  EXPECT_EQ(result.max_rel_error, 0.0);
}

TEST(HarnessTest, CurveSamplingProducesRequestedDensity) {
  const auto stream = UpDownStream();  // n = 200
  FakeProtocol protocol(1, 1.0, 10);
  RoundRobinAssignment psi(1);
  TrackingOptions options;
  options.epsilon = 0.1;
  options.curve_points = 20;
  const TrackingResult result = RunTracking(stream, &psi, &protocol, options);
  ASSERT_EQ(result.curve.size(), 20u);
  EXPECT_EQ(result.curve.front().t, 10);
  EXPECT_EQ(result.curve.back().t, 200);
  // Messages are non-decreasing along the curve.
  for (size_t i = 1; i < result.curve.size(); ++i) {
    EXPECT_GE(result.curve[i].messages, result.curve[i - 1].messages);
    EXPECT_GT(result.curve[i].t, result.curve[i - 1].t);
  }
}

TEST(HarnessTest, CurveDisabledByDefault) {
  const auto stream = UpDownStream();
  FakeProtocol protocol(1, 1.0, 10);
  RoundRobinAssignment psi(1);
  TrackingOptions options;
  const TrackingResult result = RunTracking(stream, &psi, &protocol, options);
  EXPECT_TRUE(result.curve.empty());
}

// ---- CheckCall == one CheckStep per update ------------------------------

/// Checks `stream` in calls of random length (1 to 300), the way the pump
/// and the sockets coordinator do: the estimate over a call's silent prefix
/// is the stale one from the previous call's end, and its last update is
/// judged against the fresh sum. `per_update` picks CheckStep per update
/// instead of CheckCall. Returns the tally and the final running sum.
TrackingResult CheckInCalls(const std::vector<double>& stream, bool per_update,
                            uint64_t seed, double* final_sum) {
  common::Rng rng(seed);
  TrackingOptions options;
  options.epsilon = 0.1;
  TrackingResult result;
  double sum = 0.0;
  double estimate = 0.0;
  for (size_t pos = 0; pos < stream.size();) {
    const size_t len = std::min<size_t>(
        static_cast<size_t>(rng.UniformInt(1, 300)), stream.size() - pos);
    const std::span<const double> call =
        std::span<const double>(stream).subspan(pos, len);
    double call_sum = sum;
    for (const double v : call) call_sum += v;
    const double fresh = call_sum;  // the protocol caught up at the message
    if (per_update) {
      for (size_t j = 0; j < len; ++j) {
        sum += call[j];
        CheckStep(j + 1 == len ? fresh : estimate, sum, options, &result);
      }
    } else {
      CheckCall(call, estimate, fresh, options, &sum, &result);
    }
    estimate = fresh;
    pos += len;
  }
  *final_sum = sum;
  return result;
}

/// 20000 drifting updates: ±1 when `unit`, else fractional.
std::vector<double> DriftingStream(bool unit, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> values(20000);
  for (double& v : values) {
    v = unit ? (rng.UniformInt(0, 9) < 6 ? 1.0 : -1.0)
             : rng.UniformDouble() - 0.4;
  }
  return values;
}

TEST(CheckCallTest, MatchesCheckStepPerUpdate) {
  // ±1 streams take CheckUnitPrefix on prefixes of 7 or more; fractional
  // values always take the scalar loop. Both must tally bit for bit what
  // one CheckStep per update does, violations included.
  const std::vector<double> unit = DriftingStream(true, 5);
  const std::vector<double> fractional = DriftingStream(false, 6);
  for (const std::vector<double>* stream : {&unit, &fractional}) {
    for (const uint64_t seed : {11u, 12u, 13u}) {
      double sum_ref = 0.0;
      double sum_got = 0.0;
      const TrackingResult want = CheckInCalls(*stream, true, seed, &sum_ref);
      const TrackingResult got = CheckInCalls(*stream, false, seed, &sum_got);
      EXPECT_GT(want.violation_steps, 0);  // the stale estimate must show
      EXPECT_EQ(got.violation_steps, want.violation_steps);
      EXPECT_EQ(got.max_rel_error, want.max_rel_error);  // bitwise
      EXPECT_EQ(sum_got, sum_ref);
    }
  }
}

// ---- The pump's stream prefetch is unobservable ------------------------

/// Runs the counter over `stream` (k = 4, 64-update blocks) in chunks of
/// `batch_size`, with or without a curve.
TrackingResult RunBlockCounter(const std::vector<double>& stream,
                               int batch_size, int curve_points) {
  const int64_t n = static_cast<int64_t>(stream.size());
  core::NonMonotonicCounter counter(4, testing::DefaultOptions(n, 0.2, 404));
  BlockCyclicAssignment psi(4, 64);
  TrackingOptions options;
  options.epsilon = 0.2;
  options.curve_points = curve_points;
  options.batch_size = batch_size;
  return RunTracking(stream, &psi, &counter, options);
}

TEST(HarnessTest, BitIdenticalAcrossBatchSizesAroundPrefetchDistance) {
  // The pump requests the stream 4 KiB (512 items) ahead of the chunk it
  // pumps. Streams shorter than, at and past that distance, a default
  // chunk (256 items) and both together must give the same result bit for
  // bit at every chunk size (1, 7, 256 or 2048 items). Each stream is an
  // exactly sized vector, so a read past its end is a heap overflow under
  // AddressSanitizer.
  const std::vector<double> source = streams::BernoulliStream(5000, 0.1, 77);
  for (const size_t n : {1u, 255u, 256u, 257u, 511u, 512u, 513u, 767u, 768u,
                         769u, 1023u, 1024u, 1025u, 5000u}) {
    const std::vector<double> stream(source.begin(),
                                     source.begin() + static_cast<long>(n));
    ASSERT_EQ(stream.capacity(), n);
    for (const int curve_points : {0, 16}) {
      const TrackingResult want = RunBlockCounter(stream, 1, curve_points);
      EXPECT_EQ(want.n, static_cast<int64_t>(n));
      for (const int batch : {7, 256, 2048}) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " batch=" << batch
                                          << " curve=" << curve_points);
        testing::ExpectSameResult(
            RunBlockCounter(stream, batch, curve_points), want);
      }
    }
  }
}

}  // namespace
}  // namespace nmc::sim
