#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/rng.h"
#include "sim/site_run.h"

namespace nmc::sim {

/// The adversary's data-partitioning function psi(t): which site receives
/// the t-th update. The model allows psi to adapt to everything observed
/// so far (update values and previous assignments), but not to the sites'
/// private coin flips; implementations therefore see (t, value, previous
/// choice) and nothing protocol-internal.
///
/// Policies place a whole chunk per call: Assign is the one virtual, and the
/// pump (sim::RunTracking) calls it once per stream chunk. Policies may be
/// stateful (an RNG, per-sign counters, a prefix sum), so every update must
/// be assigned exactly once, in order: consecutive calls cover consecutive
/// ranges of t. Any split of the stream into such chunks — one-element
/// chunks via NextSite included — yields the same site sequence.
class AssignmentPolicy {
 public:
  virtual ~AssignmentPolicy() = default;

  /// Assigns updates t0, t0 + 1, ..., t0 + values.size() - 1 (0-based) as
  /// the run-length encoding of their sites: writes runs[0, m) and returns
  /// m. The runs cover the updates in order (their lengths add up to
  /// values.size()), each is non-empty with its site in [0, k), and
  /// neighbours have different sites. values[i] is the content of update
  /// t0 + i, which an adaptive adversary is allowed to inspect. `runs`
  /// must have room for values.size() runs, the most a chunk can need.
  virtual size_t Assign(int64_t t0, std::span<const double> values,
                        std::span<SiteRun> runs) = 0;

  /// The one-update form of Assign: the site that receives the t-th update.
  int NextSite(int64_t t, double value) {
    SiteRun run;
    Assign(t, std::span<const double>(&value, 1), std::span<SiteRun>(&run, 1));
    return run.site;
  }
};

/// Cycles 0, 1, ..., k-1, 0, ... — an even load-balancer.
class RoundRobinAssignment final : public AssignmentPolicy {
 public:
  explicit RoundRobinAssignment(int num_sites);
  size_t Assign(int64_t t0, std::span<const double> values,
                std::span<SiteRun> runs) override;

 private:
  int num_sites_;
};

/// Each update goes to an independently uniform site.
class UniformRandomAssignment final : public AssignmentPolicy {
 public:
  UniformRandomAssignment(int num_sites, uint64_t seed);
  size_t Assign(int64_t t0, std::span<const double> values,
                std::span<SiteRun> runs) override;

 private:
  int num_sites_;
  common::Rng rng_;
};

/// All updates go to one fixed site — the maximally skewed partition.
class SingleSiteAssignment final : public AssignmentPolicy {
 public:
  SingleSiteAssignment(int num_sites, int target_site);
  size_t Assign(int64_t t0, std::span<const double> values,
                std::span<SiteRun> runs) override;

 private:
  int target_site_;
};

/// Blocks of `block_size` consecutive updates per site, cycling over sites:
/// a bursty adversary that concentrates load then moves on.
class BlockCyclicAssignment final : public AssignmentPolicy {
 public:
  BlockCyclicAssignment(int num_sites, int64_t block_size);
  size_t Assign(int64_t t0, std::span<const double> values,
                std::span<SiteRun> runs) override;

 private:
  int num_sites_;
  int64_t block_size_;
};

/// A value-adaptive adversary: positive updates are funneled to one half of
/// the sites and negative updates to the other half (round-robin within a
/// half). This exercises the model's allowance that psi may depend on the
/// update content.
class SignSplitAssignment final : public AssignmentPolicy {
 public:
  explicit SignSplitAssignment(int num_sites);
  size_t Assign(int64_t t0, std::span<const double> values,
                std::span<SiteRun> runs) override;

 private:
  int num_sites_;
  int64_t positive_count_ = 0;
  int64_t negative_count_ = 0;
};

/// A prefix-adaptive adversary (the strongest the model allows): it
/// watches the running sum of the values it has routed and keeps loading
/// one site for as long as the prefix sum keeps its sign, hopping to the
/// next site at every zero crossing. Near-zero regions — where the
/// protocol is most fragile — thus arrive maximally scattered.
class ZeroCrossingAssignment final : public AssignmentPolicy {
 public:
  explicit ZeroCrossingAssignment(int num_sites);
  size_t Assign(int64_t t0, std::span<const double> values,
                std::span<SiteRun> runs) override;

 private:
  int num_sites_;
  int current_site_ = 0;
  double prefix_sum_ = 0.0;
};

/// Factory by name ("round_robin", "random", "single", "block",
/// "sign_split", "zero_crossing") used by benches to sweep policies.
/// Returns nullptr for unknown names.
std::unique_ptr<AssignmentPolicy> MakeAssignment(const std::string& name,
                                                 int num_sites, uint64_t seed);

}  // namespace nmc::sim

