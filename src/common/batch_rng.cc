#include "common/batch_rng.h"

#include <cstddef>

#include "common/batch_rng_kernels.h"
#include "common/simd_dispatch.h"

namespace nmc::common {

namespace detail = batch_rng_detail;

static_assert(kBatchRngLanes == detail::kLanes);

namespace {

void DispatchU64(uint64_t state[4][detail::kLanes], uint64_t* out, size_t n) {
  switch (ActiveSimdLevel()) {
#if NMC_SIMD_AVX2
    case SimdLevel::kAvx2:
      detail::FillU64Avx2(state, out, n);
      return;
#endif
    default:
      detail::FillU64Scalar(state, out, n);
      return;
  }
}

void DispatchUniform(uint64_t state[4][detail::kLanes], double* out, size_t n) {
  switch (ActiveSimdLevel()) {
#if NMC_SIMD_AVX2
    case SimdLevel::kAvx2:
      detail::FillUniformAvx2(state, out, n);
      return;
#endif
    default:
      detail::FillUniformScalar(state, out, n);
      return;
  }
}

void DispatchSigns(uint64_t state[4][detail::kLanes], double* out, size_t n,
                   double p_plus) {
  switch (ActiveSimdLevel()) {
#if NMC_SIMD_AVX2
    case SimdLevel::kAvx2:
      detail::FillSignsAvx2(state, out, n, p_plus);
      return;
#endif
    default:
      detail::FillSignsScalar(state, out, n, p_plus);
      return;
  }
}

void DispatchLogTails(uint64_t state[4][detail::kLanes], double* out,
                      size_t n) {
  switch (ActiveSimdLevel()) {
#if NMC_SIMD_AVX2
    case SimdLevel::kAvx2:
      detail::FillLogTailsAvx2(state, out, n);
      return;
#endif
    default:
      detail::FillLogTailsScalar(state, out, n);
      return;
  }
}

}  // namespace

BatchRng::BatchRng(uint64_t seed) {
  uint64_t chain = seed;
  for (int lane = 0; lane < kBatchRngLanes; ++lane) {
    uint64_t sub = detail::SplitMix64(&chain);
    for (int word = 0; word < 4; ++word) {
      state_[word][lane] = detail::SplitMix64(&sub);
    }
  }
}

uint64_t BatchRng::LaneSeed(uint64_t seed, int lane) {
  uint64_t chain = seed;
  uint64_t sub = 0;
  for (int j = 0; j <= lane; ++j) sub = detail::SplitMix64(&chain);
  return sub;
}

void BatchRng::Refill() {
  for (int lane = 0; lane < kBatchRngLanes; ++lane) {
    carry_[lane] = detail::StepLane(state_, lane);
  }
  carry_pos_ = 0;
}

void BatchRng::FillU64(std::span<uint64_t> out) {
  size_t i = 0;
  while (carry_pos_ < kBatchRngLanes && i < out.size()) {
    out[i++] = carry_[carry_pos_++];
  }
  const size_t bulk = (out.size() - i) & ~static_cast<size_t>(3);
  if (bulk != 0) {
    DispatchU64(state_, out.data() + i, bulk);
    i += bulk;
  }
  if (i < out.size()) {
    Refill();
    while (i < out.size()) out[i++] = carry_[carry_pos_++];
  }
}

void BatchRng::FillUniform(std::span<double> out) {
  size_t i = 0;
  while (carry_pos_ < kBatchRngLanes && i < out.size()) {
    out[i++] = detail::U64ToUnit(carry_[carry_pos_++]);
  }
  const size_t bulk = (out.size() - i) & ~static_cast<size_t>(3);
  if (bulk != 0) {
    DispatchUniform(state_, out.data() + i, bulk);
    i += bulk;
  }
  if (i < out.size()) {
    Refill();
    while (i < out.size()) out[i++] = detail::U64ToUnit(carry_[carry_pos_++]);
  }
}

void BatchRng::FillSigns(std::span<double> out, double p_plus) {
  size_t i = 0;
  while (carry_pos_ < kBatchRngLanes && i < out.size()) {
    out[i++] = detail::U64ToUnit(carry_[carry_pos_++]) < p_plus ? 1.0 : -1.0;
  }
  const size_t bulk = (out.size() - i) & ~static_cast<size_t>(3);
  if (bulk != 0) {
    DispatchSigns(state_, out.data() + i, bulk, p_plus);
    i += bulk;
  }
  if (i < out.size()) {
    Refill();
    while (i < out.size()) {
      out[i++] = detail::U64ToUnit(carry_[carry_pos_++]) < p_plus ? 1.0 : -1.0;
    }
  }
}

void BatchRng::FillLogTails(std::span<double> out) {
  size_t i = 0;
  while (carry_pos_ < kBatchRngLanes && i < out.size()) {
    out[i++] = detail::LogTailFromU64(carry_[carry_pos_++]);
  }
  const size_t bulk = (out.size() - i) & ~static_cast<size_t>(3);
  if (bulk != 0) {
    DispatchLogTails(state_, out.data() + i, bulk);
    i += bulk;
  }
  if (i < out.size()) {
    Refill();
    while (i < out.size()) {
      out[i++] = detail::LogTailFromU64(carry_[carry_pos_++]);
    }
  }
}

uint64_t BatchRng::NextU64() {
  if (carry_pos_ == kBatchRngLanes) Refill();
  return carry_[carry_pos_++];
}

BatchRng BatchRng::Child() { return BatchRng(NextU64()); }

namespace batch_rng_detail {

void FillU64Scalar(uint64_t state[4][kLanes], uint64_t* out, size_t n) {
  for (size_t i = 0; i < n; i += kLanes) {
    for (int lane = 0; lane < kLanes; ++lane) {
      out[i + static_cast<size_t>(lane)] = StepLane(state, lane);
    }
  }
}

void FillUniformScalar(uint64_t state[4][kLanes], double* out, size_t n) {
  for (size_t i = 0; i < n; i += kLanes) {
    for (int lane = 0; lane < kLanes; ++lane) {
      out[i + static_cast<size_t>(lane)] = U64ToUnit(StepLane(state, lane));
    }
  }
}

void FillSignsScalar(uint64_t state[4][kLanes], double* out, size_t n,
                     double p_plus) {
  for (size_t i = 0; i < n; i += kLanes) {
    for (int lane = 0; lane < kLanes; ++lane) {
      out[i + static_cast<size_t>(lane)] =
          U64ToUnit(StepLane(state, lane)) < p_plus ? 1.0 : -1.0;
    }
  }
}

void FillLogTailsScalar(uint64_t state[4][kLanes], double* out, size_t n) {
  for (size_t i = 0; i < n; i += kLanes) {
    for (int lane = 0; lane < kLanes; ++lane) {
      out[i + static_cast<size_t>(lane)] =
          LogTailFromU64(StepLane(state, lane));
    }
  }
}

}  // namespace batch_rng_detail

}  // namespace nmc::common
