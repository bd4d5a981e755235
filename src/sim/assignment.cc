#include "sim/assignment.h"

#include <algorithm>

#include "common/check.h"

namespace nmc::sim {

namespace {

/// Writes Assign's output: the run-length encoding of the chunk's sites,
/// built one stretch at a time into the caller's buffer. The open run is
/// held in locals and stored when it closes, so extending it touches no
/// memory.
class RunWriter {
 public:
  RunWriter(size_t updates, std::span<SiteRun> runs) : runs_(runs) {
    NMC_CHECK_GE(runs.size(), updates);
  }

  /// Appends `length` updates at `site` (an empty stretch writes nothing).
  void Add(int site, int64_t length) {
    if (open_.length > 0 && open_.site == site) {
      open_.length += length;
      return;
    }
    if (open_.length > 0) runs_[count_++] = open_;
    open_ = SiteRun{site, length};
  }

  /// Stores the open run; returns the number of runs written.
  size_t Finish() {
    if (open_.length > 0) runs_[count_++] = open_;
    return count_;
  }

 private:
  std::span<SiteRun> runs_;
  SiteRun open_;
  size_t count_ = 0;
};

}  // namespace

RoundRobinAssignment::RoundRobinAssignment(int num_sites)
    : num_sites_(num_sites) {
  NMC_CHECK_GE(num_sites, 1);
}

size_t RoundRobinAssignment::Assign(int64_t t0,
                                    std::span<const double> values,
                                    std::span<SiteRun> runs) {
  const int k = num_sites_;  // a local: stores through `runs` may alias it
  RunWriter out(values.size(), runs);
  int site = static_cast<int>(t0 % k);
  for (size_t i = 0; i < values.size(); ++i) {
    out.Add(site, 1);
    if (++site == k) site = 0;
  }
  return out.Finish();
}

UniformRandomAssignment::UniformRandomAssignment(int num_sites, uint64_t seed)
    : num_sites_(num_sites), rng_(seed) {
  NMC_CHECK_GE(num_sites, 1);
}

size_t UniformRandomAssignment::Assign(int64_t /*t0*/,
                                       std::span<const double> values,
                                       std::span<SiteRun> runs) {
  RunWriter out(values.size(), runs);
  for (size_t i = 0; i < values.size(); ++i) {
    out.Add(static_cast<int>(rng_.UniformInt(0, num_sites_ - 1)), 1);
  }
  return out.Finish();
}

SingleSiteAssignment::SingleSiteAssignment(int num_sites, int target_site)
    : target_site_(target_site) {
  NMC_CHECK_GE(target_site, 0);
  NMC_CHECK_LT(target_site, num_sites);
}

size_t SingleSiteAssignment::Assign(int64_t /*t0*/,
                                    std::span<const double> values,
                                    std::span<SiteRun> runs) {
  RunWriter out(values.size(), runs);
  out.Add(target_site_, static_cast<int64_t>(values.size()));
  return out.Finish();
}

BlockCyclicAssignment::BlockCyclicAssignment(int num_sites, int64_t block_size)
    : num_sites_(num_sites), block_size_(block_size) {
  NMC_CHECK_GE(num_sites, 1);
  NMC_CHECK_GE(block_size, 1);
}

size_t BlockCyclicAssignment::Assign(int64_t t0,
                                     std::span<const double> values,
                                     std::span<SiteRun> runs) {
  // The two divisions locate t0 once; the rest of the chunk is whole or
  // partial blocks, one run each (one run in all at k = 1).
  const int k = num_sites_;
  const int64_t block = block_size_;
  RunWriter out(values.size(), runs);
  int site = static_cast<int>((t0 / block) % k);
  int64_t left_in_block = block - t0 % block;
  for (int64_t left = static_cast<int64_t>(values.size()); left > 0;) {
    const int64_t length = std::min(left_in_block, left);
    out.Add(site, length);
    left -= length;
    left_in_block = block;
    if (++site == k) site = 0;
  }
  return out.Finish();
}

SignSplitAssignment::SignSplitAssignment(int num_sites)
    : num_sites_(num_sites) {
  NMC_CHECK_GE(num_sites, 1);
}

size_t SignSplitAssignment::Assign(int64_t /*t0*/,
                                   std::span<const double> values,
                                   std::span<SiteRun> runs) {
  RunWriter out(values.size(), runs);
  if (num_sites_ == 1) {
    out.Add(0, static_cast<int64_t>(values.size()));
    return out.Finish();
  }
  const int half = num_sites_ / 2;
  for (const double value : values) {
    out.Add(value >= 0 ? static_cast<int>(positive_count_++ % half)
                       : half + static_cast<int>(negative_count_++ %
                                                 (num_sites_ - half)),
            1);
  }
  return out.Finish();
}

ZeroCrossingAssignment::ZeroCrossingAssignment(int num_sites)
    : num_sites_(num_sites) {
  NMC_CHECK_GE(num_sites, 1);
}

size_t ZeroCrossingAssignment::Assign(int64_t /*t0*/,
                                      std::span<const double> values,
                                      std::span<SiteRun> runs) {
  RunWriter out(values.size(), runs);
  for (const double value : values) {
    const double previous = prefix_sum_;
    prefix_sum_ += value;
    const bool crossed = (previous > 0.0 && prefix_sum_ <= 0.0) ||
                         (previous < 0.0 && prefix_sum_ >= 0.0);
    if (crossed) current_site_ = (current_site_ + 1) % num_sites_;
    out.Add(current_site_, 1);
  }
  return out.Finish();
}

std::unique_ptr<AssignmentPolicy> MakeAssignment(const std::string& name,
                                                 int num_sites,
                                                 uint64_t seed) {
  if (name == "round_robin") {
    return std::make_unique<RoundRobinAssignment>(num_sites);
  }
  if (name == "random") {
    return std::make_unique<UniformRandomAssignment>(num_sites, seed);
  }
  if (name == "single") {
    return std::make_unique<SingleSiteAssignment>(num_sites, 0);
  }
  if (name == "block") {
    return std::make_unique<BlockCyclicAssignment>(num_sites, 64);
  }
  if (name == "sign_split") {
    return std::make_unique<SignSplitAssignment>(num_sites);
  }
  if (name == "zero_crossing") {
    return std::make_unique<ZeroCrossingAssignment>(num_sites);
  }
  return nullptr;
}

}  // namespace nmc::sim
