#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/nonmonotonic_counter.h"
#include "runtime/run.h"
#include "sim/assignment.h"
#include "sim/harness.h"

namespace nmc::testing {

/// Runs the Non-monotonic Counter over `stream` with round-robin site
/// assignment and returns the harness result, going through the unified
/// transport entry point (sim backend). The checker epsilon equals the
/// counter's epsilon.
inline sim::TrackingResult RunCounter(const std::vector<double>& stream,
                                      int num_sites,
                                      const core::CounterOptions& options) {
  core::NonMonotonicCounter counter(num_sites, options);
  sim::RoundRobinAssignment psi(num_sites);
  runtime::RunConfig config;
  config.protocol = &counter;
  config.stream = &stream;
  config.psi = &psi;
  config.tracking.epsilon = options.epsilon;
  return runtime::RunWithTransport(runtime::TransportKind::kSim, config)
      .tracking;
}

/// Default counter options for a stream of length n.
inline core::CounterOptions DefaultOptions(int64_t n, double epsilon,
                                           uint64_t seed) {
  core::CounterOptions options;
  options.epsilon = epsilon;
  options.horizon_n = n;
  options.seed = seed;
  return options;
}

/// Expects two tracked runs to agree bit for bit: counts, doubles compared
/// as bit patterns, and every curve point.
inline void ExpectSameResult(const sim::TrackingResult& a,
                             const sim::TrackingResult& b) {
  const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.broadcasts, b.broadcasts);
  EXPECT_EQ(a.violation_steps, b.violation_steps);
  EXPECT_EQ(bits(a.max_rel_error), bits(b.max_rel_error));
  EXPECT_EQ(bits(a.final_sum), bits(b.final_sum));
  EXPECT_EQ(bits(a.final_estimate), bits(b.final_estimate));
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].t, b.curve[i].t) << i;
    EXPECT_EQ(a.curve[i].messages, b.curve[i].messages) << i;
    EXPECT_EQ(bits(a.curve[i].sum), bits(b.curve[i].sum)) << i;
    EXPECT_EQ(bits(a.curve[i].estimate), bits(b.curve[i].estimate)) << i;
  }
}

}  // namespace nmc::testing

