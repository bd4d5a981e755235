#include "registry/builtin.h"

#include <memory>

#include "baselines/exact_sync.h"
#include "baselines/periodic_sync.h"
#include "baselines/two_monotonic.h"
#include "common/check.h"
#include "core/horizon_free.h"
#include "core/nonmonotonic_counter.h"
#include "hyz/hyz_counter.h"
#include "sim/registry.h"

namespace nmc::registry {

namespace {

core::CounterOptions CounterOptionsFor(const sim::ProtocolParams& params) {
  core::CounterOptions options;
  options.epsilon = params.epsilon;
  options.horizon_n = params.horizon_n;
  options.channel = params.channel;
  options.seed = params.seed;
  return options;
}

hyz::HyzOptions HyzOptionsFor(const sim::ProtocolParams& params) {
  hyz::HyzOptions options;
  options.epsilon = params.epsilon;
  options.delta = params.delta;
  options.channel = params.channel;
  options.seed = params.seed;
  return options;
}

void RegisterAll() {
  sim::ProtocolRegistry& registry = sim::ProtocolRegistry::Global();

  registry.Register(
      "counter", sim::ProtocolTraits{/*general_values=*/true,
                                     /*monotonic_only=*/false},
      [](int k, const sim::ProtocolParams& params) {
        return std::make_unique<core::NonMonotonicCounter>(
            k, CounterOptionsFor(params));
      });

  registry.Register(
      "counter_drift", sim::ProtocolTraits{/*general_values=*/false,
                                           /*monotonic_only=*/false},
      [](int k, const sim::ProtocolParams& params) {
        core::CounterOptions options = CounterOptionsFor(params);
        options.drift_mode = core::DriftMode::kUnknownUnitDrift;
        return std::make_unique<core::NonMonotonicCounter>(k, options);
      });

  registry.Register(
      "horizon_free", sim::ProtocolTraits{/*general_values=*/true,
                                          /*monotonic_only=*/false},
      [](int k, const sim::ProtocolParams& params) {
        // The wrapper's restart snapshot relies on ForceSync completing,
        // which only the perfect channel guarantees.
        NMC_CHECK(!params.channel.faulty());
        core::HorizonFreeOptions options;
        options.counter = CounterOptionsFor(params);
        options.initial_horizon = 512;
        return std::make_unique<core::HorizonFreeCounter>(k, options);
      });

  registry.Register(
      "hyz", sim::ProtocolTraits{/*general_values=*/false,
                                 /*monotonic_only=*/true},
      [](int k, const sim::ProtocolParams& params) {
        return std::make_unique<hyz::HyzProtocol>(k, HyzOptionsFor(params));
      });

  registry.Register(
      "hyz_deterministic", sim::ProtocolTraits{/*general_values=*/false,
                                               /*monotonic_only=*/true},
      [](int k, const sim::ProtocolParams& params) {
        hyz::HyzOptions options = HyzOptionsFor(params);
        options.mode = hyz::HyzMode::kDeterministic;
        return std::make_unique<hyz::HyzProtocol>(k, options);
      });

  registry.Register(
      "exact_sync", sim::ProtocolTraits{/*general_values=*/true,
                                        /*monotonic_only=*/false},
      [](int k, const sim::ProtocolParams& params) {
        return std::make_unique<baselines::ExactSyncProtocol>(k,
                                                              params.channel);
      });

  registry.Register(
      "periodic_sync", sim::ProtocolTraits{/*general_values=*/true,
                                           /*monotonic_only=*/false},
      [](int k, const sim::ProtocolParams& params) {
        return std::make_unique<baselines::PeriodicSyncProtocol>(
            k, params.period, params.channel);
      });

  registry.Register(
      "two_monotonic", sim::ProtocolTraits{/*general_values=*/false,
                                           /*monotonic_only=*/false},
      [](int k, const sim::ProtocolParams& params) {
        return std::make_unique<baselines::TwoMonotonicProtocol>(
            k, params.epsilon, params.delta, params.seed, params.channel);
      });
}

}  // namespace

void RegisterBuiltinProtocols() {
  // Thread-safe and idempotent via the local-static guard; duplicate
  // registration cannot happen (RegisterAll runs once per process).
  static const bool registered = [] {
    RegisterAll();
    return true;
  }();
  (void)registered;
}

}  // namespace nmc::registry
