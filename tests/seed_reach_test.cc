// The caller's seed must reach every coin the library flips. The paper's
// guarantee holds with probability 1 - O(1/n) over the protocol's own
// coins, so a coin that ignores the seed silently turns "over the coins"
// into "for one fixed coin sequence", and repeated trials stop being
// independent. Each subject below is run at seeds 1-4: the same seed must
// give bit-identical output, and the four seeds must not all agree. The
// few subjects that take a seed but flip no coin are listed with the
// reason, and must give the same output at every seed.
//
// Shapes are chosen so the coins fire: a counter that never leaves
// StraightSync reports every update and reads the same at every seed, so
// the drifting streams below keep it in SBC; counter_drift reaches Phase 2
// and horizon_free restarts.

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/first_passage.h"
#include "core/horizon_free.h"
#include "core/lower_bound.h"
#include "core/nonmonotonic_counter.h"
#include "registry/builtin.h"
#include "regression/distributed_linreg.h"
#include "runtime/run.h"
#include "sim/assignment.h"
#include "sim/channel.h"
#include "sim/registry.h"
#include "sketch/ams_sketch.h"
#include "sketch/distributed_f2.h"
#include "streams/bernoulli.h"
#include "streams/fbm.h"
#include "streams/items.h"
#include "streams/permutation.h"
#include "streams/regression_data.h"

namespace nmc {
namespace {

/// A subject's observable output at one seed, as raw bits.
using Output = std::vector<uint64_t>;

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// Inputs that are not under test use this seed, so only the subject's own
/// seed varies between runs.
constexpr uint64_t kInputSeed = 12345;

struct Subject {
  std::string name;
  std::function<Output(uint64_t seed)> run;
  /// Non-null: the subject takes a seed but flips no coin, and why.
  const char* seedless = nullptr;
};

std::string SubjectName(const ::testing::TestParamInfo<Subject>& info) {
  return info.param.name;
}

class SeedReachTest : public ::testing::TestWithParam<Subject> {};

TEST_P(SeedReachTest, SameSeedGivesBitIdenticalOutput) {
  const Subject& subject = GetParam();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Output first = subject.run(seed);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, subject.run(seed)) << "seed " << seed;
  }
}

TEST_P(SeedReachTest, SeedReachesTheCoins) {
  const Subject& subject = GetParam();
  const Output first = subject.run(1);
  bool all_equal = true;
  for (uint64_t seed = 2; seed <= 4; ++seed) {
    all_equal = all_equal && subject.run(seed) == first;
  }
  if (subject.seedless != nullptr) {
    EXPECT_TRUE(all_equal) << "listed as seedless (" << subject.seedless
                           << ") but its output moves with the seed";
  } else {
    EXPECT_FALSE(all_equal) << "seeds 1-4 give identical output: the seed "
                               "does not reach the coins";
  }
}

// ---- Registered protocols -------------------------------------------------

/// The shape each registered protocol runs at. Every registered name needs
/// a row (RegisteredProtocolsAreAllListed).
struct ProtocolShape {
  const char* name;
  int k;
  int64_t n;
  /// Drift of the ±1 input; monotonic-only protocols get +1s instead.
  double mu;
  /// Output is read from this update on (messages counted from there):
  /// skips a prefix whose coins belong to another seed path.
  int64_t tail_from;
  const char* seedless;
};

constexpr int kCurvePoints = 64;

const ProtocolShape kProtocolShapes[] = {
    {"counter", 4, 1 << 15, 0.3, 0, nullptr},
    // k = 32 makes Phase 2 pick sampled HYZ rounds (its auto mode takes the
    // deterministic thresholds while 2k < sqrt(kL) + L).
    {"counter_drift", 32, 1 << 15, 0.5, 0, nullptr},
    {"exact_sync", 4, 1 << 12, 0.3, 0, "reports every update"},
    // Read only after the first restart (initial horizon 512): the ForceSync
    // there leaves an exact state, so every later coin is a later epoch's.
    {"horizon_free", 4, 1 << 13, 0.3, 640, nullptr},
    {"hyz", 4, 1 << 15, 0.0, 0, nullptr},
    {"hyz_deterministic", 4, 1 << 12, 0.0, 0,
     "HyzMode::kDeterministic reports on fixed thresholds"},
    {"periodic_sync", 4, 1 << 12, 0.3, 0, "reports every period-th update"},
    {"two_monotonic", 4, 1 << 15, 0.3, 0, nullptr},
};

sim::ProtocolRegistry& Registry() {
  registry::RegisterBuiltinProtocols();
  return sim::ProtocolRegistry::Global();
}

/// Messages (counted from the first point read) and the estimate at evenly
/// spaced steps from `tail_from` on, the run's final step included.
Output TrackedOutput(sim::Protocol* protocol, const std::vector<double>& stream,
                     int64_t tail_from) {
  runtime::RunConfig config;
  config.protocol = protocol;
  config.stream = &stream;
  config.tracking.curve_points = kCurvePoints;
  const sim::TrackingResult result =
      runtime::RunWithTransport(runtime::TransportKind::kSim, config).tracking;
  Output out;
  int64_t base = -1;
  for (const sim::CurvePoint& point : result.curve) {
    if (point.t < tail_from) continue;
    if (base < 0) base = point.messages;
    out.push_back(static_cast<uint64_t>(point.messages - base));
    out.push_back(Bits(point.estimate));
  }
  return out;
}

/// Runs `shape` at `seed` and leaves the protocol in *protocol.
Output RunShape(const ProtocolShape& shape, uint64_t seed,
                std::unique_ptr<sim::Protocol>* protocol) {
  const bool ones = Registry().Traits(shape.name)->monotonic_only;
  const std::vector<double> stream =
      ones ? std::vector<double>(static_cast<size_t>(shape.n), 1.0)
           : streams::BernoulliStream(shape.n, shape.mu, kInputSeed);
  sim::ProtocolParams params;
  params.horizon_n = shape.n;
  params.seed = seed;
  *protocol = Registry().Create(shape.name, shape.k, params);
  return TrackedOutput(protocol->get(), stream, shape.tail_from);
}

const ProtocolShape& Shape(const std::string& name) {
  for (const ProtocolShape& shape : kProtocolShapes) {
    if (shape.name == name) return shape;
  }
  ADD_FAILURE() << "no shape for " << name;
  return kProtocolShapes[0];
}

std::vector<Subject> ProtocolSubjects() {
  std::vector<Subject> subjects;
  for (const ProtocolShape& shape : kProtocolShapes) {
    subjects.push_back({shape.name,
                        [shape](uint64_t seed) {
                          std::unique_ptr<sim::Protocol> protocol;
                          return RunShape(shape, seed, &protocol);
                        },
                        shape.seedless});
  }
  return subjects;
}

INSTANTIATE_TEST_SUITE_P(Protocols, SeedReachTest,
                         ::testing::ValuesIn(ProtocolSubjects()), SubjectName);

TEST(SeedReachShapesTest, RegisteredProtocolsAreAllListed) {
  std::vector<std::string> listed;
  for (const ProtocolShape& shape : kProtocolShapes) {
    listed.push_back(shape.name);
  }
  EXPECT_EQ(Registry().Names(), listed);
}

TEST(SeedReachShapesTest, CoinsFireAtTheListedShapes) {
  // counter_drift's HYZ pair is seeded only at the Phase-2 switch, and
  // horizon_free seeds each epoch at its restart.
  std::unique_ptr<sim::Protocol> drift;
  RunShape(Shape("counter_drift"), 1, &drift);
  EXPECT_TRUE(static_cast<core::NonMonotonicCounter&>(*drift)
                  .diagnostics()
                  .phase2_active);
  std::unique_ptr<sim::Protocol> horizon_free;
  RunShape(Shape("horizon_free"), 1, &horizon_free);
  EXPECT_GE(static_cast<core::HorizonFreeCounter&>(*horizon_free).epochs(), 2);
}

// ---- Phase 2 alone --------------------------------------------------------

/// A StraightSync-only Phase 1 reports every update, so GPSearch resolves at
/// the same step at every seed and only the HYZ pair's coins can move the
/// output. Forcing sampled HYZ rounds makes them fire at k = 4.
Output PhaseTwoOutput(uint64_t seed) {
  const int64_t n = 1 << 14;
  core::CounterOptions options;
  options.epsilon = 0.2;
  options.horizon_n = n;
  options.drift_mode = core::DriftMode::kUnknownUnitDrift;
  options.stage_policy = core::StagePolicy::kStraightOnly;
  options.phase2_auto_hyz_mode = false;
  options.seed = seed;
  core::NonMonotonicCounter counter(4, options);
  const Output out =
      TrackedOutput(&counter, streams::BernoulliStream(n, 0.5, kInputSeed), 0);
  EXPECT_TRUE(counter.diagnostics().phase2_active);
  return out;
}

INSTANTIATE_TEST_SUITE_P(PhaseTwo, SeedReachTest,
                         ::testing::Values(Subject{"hyz_pair", PhaseTwoOutput}),
                         SubjectName);

// ---- Assignment policies and fault channels -------------------------------

/// Every ψ sim::MakeAssignment builds, over one fixed ±1 stream.
std::vector<Subject> AssignmentSubjects() {
  struct Row {
    const char* name;
    const char* seedless;
  };
  const Row rows[] = {
      {"round_robin", "cycles over the sites"},
      {"random", nullptr},
      {"single", "sends everything to site 0"},
      {"block", "cycles over fixed blocks"},
      {"sign_split", "routes by sign"},
      {"zero_crossing", "moves on at each zero crossing"},
  };
  std::vector<Subject> subjects;
  for (const Row& row : rows) {
    subjects.push_back(
        {std::string("psi_") + row.name,
         [name = row.name](uint64_t seed) {
           const std::vector<double> values =
               streams::BernoulliStream(4096, 0.0, kInputSeed);
           std::unique_ptr<sim::AssignmentPolicy> psi =
               sim::MakeAssignment(name, 8, seed);
           std::vector<sim::SiteRun> runs(values.size());
           const size_t count = psi->Assign(0, values, runs);
           Output out;
           for (size_t i = 0; i < count; ++i) {
             out.push_back(static_cast<uint64_t>(runs[i].site));
             out.push_back(static_cast<uint64_t>(runs[i].length));
           }
           return out;
         },
         row.seedless});
  }
  return subjects;
}

/// The verdicts a channel built from `config` (with its seed replaced)
/// hands a fixed sequence of hops.
Output ChannelVerdicts(sim::ChannelConfig config, uint64_t seed) {
  config.seed = seed;
  const std::unique_ptr<sim::ChannelModel> channel = sim::MakeChannel(config);
  Output out;
  for (int64_t tick = 0; tick < 1024; ++tick) {
    sim::Hop hop;
    hop.to_coordinator = tick % 2 == 0;
    hop.site_id = static_cast<int>(tick % 4);
    hop.tick = tick;
    const sim::ChannelVerdict verdict = channel->Adjudicate(hop);
    out.push_back(static_cast<uint64_t>(verdict.action));
    out.push_back(static_cast<uint64_t>(verdict.delay_ticks));
  }
  return out;
}

std::vector<Subject> ChannelSubjects() {
  sim::ChannelConfig loss;
  loss.kind = sim::ChannelConfig::Kind::kLoss;
  loss.loss = 0.2;
  loss.duplicate = 0.1;
  sim::ChannelConfig delay;
  delay.kind = sim::ChannelConfig::Kind::kDelay;
  delay.delay_probability = 0.3;
  delay.max_delay = 8;
  return {
      {"loss_channel",
       [loss](uint64_t seed) { return ChannelVerdicts(loss, seed); }},
      {"delay_channel",
       [delay](uint64_t seed) { return ChannelVerdicts(delay, seed); }},
  };
}

INSTANTIATE_TEST_SUITE_P(Psi, SeedReachTest,
                         ::testing::ValuesIn(AssignmentSubjects()),
                         SubjectName);
INSTANTIATE_TEST_SUITE_P(Network, SeedReachTest,
                         ::testing::ValuesIn(ChannelSubjects()), SubjectName);

// ---- Stream generators ----------------------------------------------------

Output ValuesOutput(const std::vector<double>& values) {
  Output out;
  for (const double value : values) out.push_back(Bits(value));
  return out;
}

Output ItemsOutput(const std::vector<streams::ItemUpdate>& updates) {
  Output out;
  for (const streams::ItemUpdate& update : updates) {
    out.push_back(static_cast<uint64_t>(update.item));
    out.push_back(static_cast<uint64_t>(update.sign));
  }
  return out;
}

/// Every seeded generator in src/streams. The rest (adversarial.h and the
/// multisets of permutation.h) take no seed.
std::vector<Subject> StreamSubjects() {
  return {
      {"bernoulli",
       [](uint64_t seed) {
         return ValuesOutput(streams::BernoulliStream(2048, 0.1, seed));
       }},
      {"fractional_iid",
       [](uint64_t seed) {
         return ValuesOutput(
             streams::FractionalIidStream(2048, 0.1, 0.5, seed));
       }},
      {"fgn_davies_harte",
       [](uint64_t seed) {
         return ValuesOutput(streams::FgnDaviesHarte(1024, 0.7, seed));
       }},
      {"fgn_hosking",
       [](uint64_t seed) {
         return ValuesOutput(streams::FgnHosking(256, 0.7, seed));
       }},
      {"zipf_insert",
       [](uint64_t seed) {
         return ItemsOutput(streams::ZipfInsertStream(1024, 64, 1.1, seed));
       }},
      {"zipf_turnstile",
       [](uint64_t seed) {
         return ItemsOutput(
             streams::ZipfTurnstileStream(1024, 64, 1.1, 0.3, seed));
       }},
      {"permuted_items",
       [](uint64_t seed) {
         return ItemsOutput(streams::PermutedItemStream(
             streams::ZipfInsertStream(1024, 64, 1.1, kInputSeed), seed));
       }},
      {"randomly_permuted",
       [](uint64_t seed) {
         return ValuesOutput(streams::RandomlyPermuted(
             streams::SignMultiset(1024, 0.6), seed));
       }},
      {"regression_data",
       [](uint64_t seed) {
         streams::RegressionDataOptions options;
         options.dim = 3;
         options.seed = seed;
         const streams::RegressionData data =
             streams::GenerateRegressionData(256, options);
         Output out = ValuesOutput(data.true_weights);
         for (const streams::RegressionSample& sample : data.samples) {
           const Output x = ValuesOutput(sample.x);
           out.insert(out.end(), x.begin(), x.end());
           out.push_back(Bits(sample.y));
         }
         return out;
       }},
  };
}

INSTANTIATE_TEST_SUITE_P(Streams, SeedReachTest,
                         ::testing::ValuesIn(StreamSubjects()), SubjectName);

// ---- Applications and analysis --------------------------------------------

std::vector<Subject> ApplicationSubjects() {
  return {
      {"ams_sketch",
       [](uint64_t seed) {
         sketch::AmsSketch ams(5, 16, seed);
         for (const streams::ItemUpdate& update :
              streams::ZipfTurnstileStream(2048, 64, 1.1, 0.3, kInputSeed)) {
           ams.Update(static_cast<uint64_t>(update.item), update.sign);
         }
         Output out{Bits(ams.EstimateF2())};
         for (int row = 0; row < ams.rows(); ++row) {
           for (int col = 0; col < ams.cols(); ++col) {
             out.push_back(Bits(ams.Cell(row, col)));
           }
         }
         return out;
       }},
      {"distributed_f2",
       [](uint64_t seed) {
         const int64_t n = 4096;
         sketch::DistributedF2Options options;
         options.cols = 16;
         options.horizon_n = n;
         options.seed = seed;
         sketch::DistributedF2Tracker tracker(4, options);
         const std::vector<streams::ItemUpdate> updates =
             streams::ZipfTurnstileStream(n, 64, 1.1, 0.3, kInputSeed);
         Output out;
         for (size_t t = 0; t < updates.size(); ++t) {
           tracker.ProcessUpdate(static_cast<int>(t % 4), updates[t]);
           if (t % 256 == 255) out.push_back(Bits(tracker.EstimateF2()));
         }
         out.push_back(static_cast<uint64_t>(tracker.stats().total()));
         return out;
       }},
      {"distributed_linreg",
       [](uint64_t seed) {
         const int64_t n = 2048;
         streams::RegressionDataOptions data_options;
         data_options.dim = 2;
         data_options.seed = kInputSeed;
         const streams::RegressionData data =
             streams::GenerateRegressionData(n, data_options);
         regression::DistributedLinRegOptions options;
         options.model.dim = 2;
         options.horizon_n = n;
         options.seed = seed;
         regression::DistributedLinRegTracker tracker(4, options);
         for (size_t t = 0; t < data.samples.size(); ++t) {
           tracker.ProcessUpdate(static_cast<int>(t % 4), data.samples[t].x,
                                 data.samples[t].y);
         }
         Output out = ValuesOutput(tracker.TrackedMoment());
         out.push_back(static_cast<uint64_t>(tracker.stats().total()));
         return out;
       }},
      {"first_passage_monte_carlo",
       [](uint64_t seed) {
         return Output{
             Bits(analysis::SyncFailureMonteCarlo(8, 0.0, 0.02, 2000, seed))};
       }},
      {"k_inputs_game",
       [](uint64_t seed) {
         const core::KInputsGameResult result =
             core::RunKInputsGame(64, 8, 1.0, 2000, seed);
         return Output{static_cast<uint64_t>(result.decided_trials),
                       static_cast<uint64_t>(result.errors)};
       }},
  };
}

INSTANTIATE_TEST_SUITE_P(Applications, SeedReachTest,
                         ::testing::ValuesIn(ApplicationSubjects()),
                         SubjectName);

}  // namespace
}  // namespace nmc
