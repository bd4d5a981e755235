#include "sim/assignment.h"

#include <algorithm>

#include "common/check.h"

namespace nmc::sim {

RoundRobinAssignment::RoundRobinAssignment(int num_sites)
    : num_sites_(num_sites) {
  NMC_CHECK_GE(num_sites, 1);
}

void RoundRobinAssignment::Assign(int64_t t0,
                                  std::span<const double> /*values*/,
                                  std::span<int> sites) {
  const int k = num_sites_;  // a local: stores through `sites` may alias it
  int site = static_cast<int>(t0 % k);
  for (int& s : sites) {
    s = site;
    if (++site == k) site = 0;
  }
}

UniformRandomAssignment::UniformRandomAssignment(int num_sites, uint64_t seed)
    : num_sites_(num_sites), rng_(seed) {
  NMC_CHECK_GE(num_sites, 1);
}

void UniformRandomAssignment::Assign(int64_t /*t0*/,
                                     std::span<const double> /*values*/,
                                     std::span<int> sites) {
  for (int& s : sites) {
    s = static_cast<int>(rng_.UniformInt(0, num_sites_ - 1));
  }
}

SingleSiteAssignment::SingleSiteAssignment(int num_sites, int target_site)
    : target_site_(target_site) {
  NMC_CHECK_GE(target_site, 0);
  NMC_CHECK_LT(target_site, num_sites);
}

void SingleSiteAssignment::Assign(int64_t /*t0*/,
                                  std::span<const double> /*values*/,
                                  std::span<int> sites) {
  std::fill(sites.begin(), sites.end(), target_site_);
}

BlockCyclicAssignment::BlockCyclicAssignment(int num_sites, int64_t block_size)
    : num_sites_(num_sites), block_size_(block_size) {
  NMC_CHECK_GE(num_sites, 1);
  NMC_CHECK_GE(block_size, 1);
}

void BlockCyclicAssignment::Assign(int64_t t0,
                                   std::span<const double> /*values*/,
                                   std::span<int> sites) {
  // The two divisions locate t0 once; the rest of the chunk is whole or
  // partial blocks filled in turn.
  int site = static_cast<int>((t0 / block_size_) % num_sites_);
  int64_t left_in_block = block_size_ - t0 % block_size_;
  auto out = sites.begin();
  while (out != sites.end()) {
    const int64_t fill = std::min<int64_t>(left_in_block, sites.end() - out);
    out = std::fill_n(out, fill, site);
    left_in_block = block_size_;
    if (++site == num_sites_) site = 0;
  }
}

SignSplitAssignment::SignSplitAssignment(int num_sites)
    : num_sites_(num_sites) {
  NMC_CHECK_GE(num_sites, 1);
}

void SignSplitAssignment::Assign(int64_t /*t0*/,
                                 std::span<const double> values,
                                 std::span<int> sites) {
  if (num_sites_ == 1) {
    std::fill(sites.begin(), sites.end(), 0);
    return;
  }
  const int half = num_sites_ / 2;
  for (size_t i = 0; i < sites.size(); ++i) {
    sites[i] =
        values[i] >= 0
            ? static_cast<int>(positive_count_++ % half)
            : half + static_cast<int>(negative_count_++ % (num_sites_ - half));
  }
}

ZeroCrossingAssignment::ZeroCrossingAssignment(int num_sites)
    : num_sites_(num_sites) {
  NMC_CHECK_GE(num_sites, 1);
}

void ZeroCrossingAssignment::Assign(int64_t /*t0*/,
                                    std::span<const double> values,
                                    std::span<int> sites) {
  for (size_t i = 0; i < sites.size(); ++i) {
    const double previous = prefix_sum_;
    prefix_sum_ += values[i];
    const bool crossed = (previous > 0.0 && prefix_sum_ <= 0.0) ||
                         (previous < 0.0 && prefix_sum_ >= 0.0);
    if (crossed) current_site_ = (current_site_ + 1) % num_sites_;
    sites[i] = current_site_;
  }
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
