// ProtocolRegistry tests: registration semantics, traits lookup, and the
// acceptance criterion that a factory-built protocol is bit-identical to
// the same protocol constructed directly.

#include "sim/registry.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/exact_sync.h"
#include "baselines/periodic_sync.h"
#include "baselines/two_monotonic.h"
#include "common/rng.h"
#include "core/horizon_free.h"
#include "core/nonmonotonic_counter.h"
#include "hyz/hyz_counter.h"
#include "registry/builtin.h"

namespace nmc::sim {
namespace {

const char* const kBuiltinNames[] = {
    "counter",      "counter_drift",     "exact_sync",    "horizon_free",
    "hyz",          "hyz_deterministic", "periodic_sync", "two_monotonic",
};

ProtocolRegistry& Registry() {
  registry::RegisterBuiltinProtocols();
  return ProtocolRegistry::Global();
}

TEST(RegistryTest, BuiltinNamesAreRegisteredAndSorted) {
  ProtocolRegistry& registry = Registry();
  const std::vector<std::string> names = registry.Names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* name : kBuiltinNames) {
    EXPECT_TRUE(registry.Contains(name)) << name;
  }
  EXPECT_FALSE(registry.Contains("definitely_not_registered"));
}

TEST(RegistryTest, DuplicateRegistrationIsRejected) {
  ProtocolRegistry& registry = Registry();
  const size_t before = registry.Names().size();
  const bool inserted = registry.Register(
      "counter", ProtocolTraits{},
      [](int num_sites, const ProtocolParams& /*params*/) {
        return std::unique_ptr<Protocol>(
            new core::NonMonotonicCounter(num_sites, core::CounterOptions{}));
      });
  EXPECT_FALSE(inserted);
  EXPECT_EQ(registry.Names().size(), before);
}

TEST(RegistryTest, TraitsDriveStreamSelection) {
  ProtocolRegistry& registry = Registry();
  ASSERT_NE(registry.Traits("counter"), nullptr);
  EXPECT_TRUE(registry.Traits("counter")->general_values);
  EXPECT_FALSE(registry.Traits("counter")->monotonic_only);
  ASSERT_NE(registry.Traits("hyz"), nullptr);
  EXPECT_TRUE(registry.Traits("hyz")->monotonic_only);
  ASSERT_NE(registry.Traits("two_monotonic"), nullptr);
  EXPECT_FALSE(registry.Traits("two_monotonic")->general_values);
  EXPECT_EQ(registry.Traits("no_such_protocol"), nullptr);
}

TEST(RegistryTest, CreateReportsTheRequestedTopology) {
  ProtocolRegistry& registry = Registry();
  ProtocolParams params;
  for (const char* name : kBuiltinNames) {
    std::unique_ptr<Protocol> protocol = registry.Create(name, 3, params);
    ASSERT_NE(protocol, nullptr) << name;
    EXPECT_EQ(protocol->num_sites(), 3) << name;
    EXPECT_GE(protocol->Estimate(), -1e18) << name;  // callable before data
  }
}

// ---- Factory vs direct construction bit-identity ------------------------

/// Drives `protocol` with the trait-appropriate deterministic stream and
/// returns the estimate after every update plus the final message count.
std::pair<std::vector<double>, int64_t> Trace(Protocol* protocol,
                                              const ProtocolTraits& traits) {
  common::Rng rng(71);
  std::vector<double> estimates;
  const int k = protocol->num_sites();
  for (int i = 0; i < 1200; ++i) {
    double value = 1.0;
    if (!traits.monotonic_only) {
      value = traits.general_values ? rng.UniformDouble() * 1.8 - 0.9
                                    : static_cast<double>(rng.Sign(0.5));
    }
    protocol->ProcessUpdate(i % k, value);
    estimates.push_back(protocol->Estimate());
  }
  return {std::move(estimates), protocol->stats().total()};
}

/// The exact option translation the builtin builders perform, duplicated
/// here on purpose: the test pins the factory to the documented mapping.
core::CounterOptions DirectCounterOptions(const ProtocolParams& params) {
  core::CounterOptions options;
  options.epsilon = params.epsilon;
  options.horizon_n = params.horizon_n;
  options.channel = params.channel;
  options.seed = params.seed;
  return options;
}

hyz::HyzOptions DirectHyzOptions(const ProtocolParams& params) {
  hyz::HyzOptions options;
  options.epsilon = params.epsilon;
  options.delta = params.delta;
  options.channel = params.channel;
  options.seed = params.seed;
  return options;
}

TEST(RegistryTest, FactoryBuiltProtocolsMatchDirectConstruction) {
  ProtocolRegistry& registry = Registry();
  ProtocolParams params;
  params.epsilon = 0.2;
  params.horizon_n = 4096;
  params.delta = 1e-5;
  params.period = 8;
  params.seed = 21;

  using DirectBuilder = std::function<std::unique_ptr<Protocol>(int)>;
  struct Case {
    const char* name;
    DirectBuilder direct;
  };
  const Case cases[] = {
      {"counter",
       [&](int k) -> std::unique_ptr<Protocol> {
         return std::make_unique<core::NonMonotonicCounter>(
             k, DirectCounterOptions(params));
       }},
      {"counter_drift",
       [&](int k) -> std::unique_ptr<Protocol> {
         core::CounterOptions options = DirectCounterOptions(params);
         options.drift_mode = core::DriftMode::kUnknownUnitDrift;
         return std::make_unique<core::NonMonotonicCounter>(k, options);
       }},
      {"horizon_free",
       [&](int k) -> std::unique_ptr<Protocol> {
         core::HorizonFreeOptions options;
         options.counter = DirectCounterOptions(params);
         options.initial_horizon = 512;
         return std::make_unique<core::HorizonFreeCounter>(k, options);
       }},
      {"hyz",
       [&](int k) -> std::unique_ptr<Protocol> {
         return std::make_unique<hyz::HyzProtocol>(k, DirectHyzOptions(params));
       }},
      {"hyz_deterministic",
       [&](int k) -> std::unique_ptr<Protocol> {
         hyz::HyzOptions options = DirectHyzOptions(params);
         options.mode = hyz::HyzMode::kDeterministic;
         return std::make_unique<hyz::HyzProtocol>(k, options);
       }},
      {"exact_sync",
       [&](int k) -> std::unique_ptr<Protocol> {
         return std::make_unique<baselines::ExactSyncProtocol>(k,
                                                               params.channel);
       }},
      {"periodic_sync",
       [&](int k) -> std::unique_ptr<Protocol> {
         return std::make_unique<baselines::PeriodicSyncProtocol>(
             k, params.period, params.channel);
       }},
      {"two_monotonic",
       [&](int k) -> std::unique_ptr<Protocol> {
         return std::make_unique<baselines::TwoMonotonicProtocol>(
             k, params.epsilon, params.delta, params.seed, params.channel);
       }},
  };

  for (const Case& c : cases) {
    const ProtocolTraits* traits = registry.Traits(c.name);
    ASSERT_NE(traits, nullptr) << c.name;
    std::unique_ptr<Protocol> from_factory = registry.Create(c.name, 4, params);
    std::unique_ptr<Protocol> from_direct = c.direct(4);
    const auto factory_trace = Trace(from_factory.get(), *traits);
    const auto direct_trace = Trace(from_direct.get(), *traits);
    EXPECT_EQ(factory_trace.first, direct_trace.first)
        << c.name << ": estimate traces diverge";
    EXPECT_EQ(factory_trace.second, direct_trace.second)
        << c.name << ": message counts diverge";
  }
}

}  // namespace
}  // namespace nmc::sim
