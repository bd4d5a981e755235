// NEON (aarch64) kernels for BatchRng: the four xoshiro lanes are walked as
// two 128-bit pairs. aarch64 has exact u64->f64 and s64->f64 converts, so
// the uniform mapping needs no mantissa tricks; the log polynomial fuses
// exactly where the scalar oracle calls std::fma (vfmaq_f64 is the same
// single-rounded op) and nowhere else (-ffp-contract=off), so results
// match the scalar oracle bit for bit.

#include "common/batch_rng_kernels.h"

#if NMC_SIMD_NEON

#include <arm_neon.h>

namespace nmc::common::batch_rng_detail {
namespace {

struct Pair {
  uint64x2_t s0, s1, s2, s3;
};

inline Pair LoadPair(uint64_t state[4][kLanes], int base) {
  return {vld1q_u64(&state[0][base]), vld1q_u64(&state[1][base]),
          vld1q_u64(&state[2][base]), vld1q_u64(&state[3][base])};
}

inline void StorePair(uint64_t state[4][kLanes], int base, const Pair& r) {
  vst1q_u64(&state[0][base], r.s0);
  vst1q_u64(&state[1][base], r.s1);
  vst1q_u64(&state[2][base], r.s2);
  vst1q_u64(&state[3][base], r.s3);
}

template <int K>
inline uint64x2_t RotL64(uint64x2_t x) {
  return vorrq_u64(vshlq_n_u64(x, K), vshrq_n_u64(x, 64 - K));
}

inline uint64x2_t Step(Pair* r) {
  const uint64x2_t result =
      vaddq_u64(RotL64<23>(vaddq_u64(r->s0, r->s3)), r->s0);
  const uint64x2_t t = vshlq_n_u64(r->s1, 17);
  r->s2 = veorq_u64(r->s2, r->s0);
  r->s3 = veorq_u64(r->s3, r->s1);
  r->s1 = veorq_u64(r->s1, r->s2);
  r->s0 = veorq_u64(r->s0, r->s3);
  r->s2 = veorq_u64(r->s2, t);
  r->s3 = RotL64<45>(r->s3);
  return result;
}

inline float64x2_t ToUnit(uint64x2_t x) {
  const float64x2_t value = vcvtq_f64_u64(vshrq_n_u64(x, 11));  // exact
  return vmulq_f64(value, vdupq_n_f64(0x1.0p-53));
}

inline float64x2_t PolyLog2(float64x2_t u) {
  const uint64x2_t bits = vreinterpretq_u64_f64(u);
  int64x2_t e = vsubq_s64(
      vreinterpretq_s64_u64(
          vandq_u64(vshrq_n_u64(bits, 52), vdupq_n_u64(0x7FF))),
      vdupq_n_s64(1022));
  float64x2_t m = vreinterpretq_f64_u64(
      vorrq_u64(vandq_u64(bits, vdupq_n_u64(0xFFFFFFFFFFFFFULL)),
                vdupq_n_u64(0x3FE0000000000000ULL)));
  const uint64x2_t small = vcltq_f64(m, vdupq_n_f64(kSqrtHalf));
  m = vbslq_f64(small, vaddq_f64(m, m), m);
  e = vsubq_s64(e, vreinterpretq_s64_u64(vandq_u64(small, vdupq_n_u64(1))));
  const float64x2_t z = vdivq_f64(vsubq_f64(m, vdupq_n_f64(1.0)),
                                  vaddq_f64(m, vdupq_n_f64(1.0)));
  const float64x2_t w = vmulq_f64(z, z);
  const float64x2_t w2 = vmulq_f64(w, w);
  const float64x2_t a =
      vfmaq_f64(vdupq_n_f64(kLogCoeff[0]), vdupq_n_f64(kLogCoeff[1]), w);
  const float64x2_t b =
      vfmaq_f64(vdupq_n_f64(kLogCoeff[2]), vdupq_n_f64(kLogCoeff[3]), w);
  const float64x2_t inner = vfmaq_f64(b, w2, vdupq_n_f64(kLogCoeff[4]));
  const float64x2_t p = vfmaq_f64(a, w2, inner);
  const float64x2_t ed = vcvtq_f64_s64(e);  // exact for |e| <= 53
  return vfmaq_f64(vmulq_f64(ed, vdupq_n_f64(kLn2)), z, p);
}

/// Two-wide twin of LogTailFromU64 (bit-overlay tail, then PolyLog2).
inline float64x2_t LogTails2(uint64x2_t x) {
  const float64x2_t tail = vsubq_f64(
      vdupq_n_f64(2.0),
      vreinterpretq_f64_u64(vorrq_u64(vshrq_n_u64(x, 12),
                                      vdupq_n_u64(0x3FF0000000000000ULL))));
  return PolyLog2(tail);
}

}  // namespace

void FillU64Neon(uint64_t state[4][kLanes], uint64_t* out, size_t n) {
  Pair a = LoadPair(state, 0);
  Pair b = LoadPair(state, 2);
  for (size_t i = 0; i < n; i += 4) {
    vst1q_u64(out + i, Step(&a));
    vst1q_u64(out + i + 2, Step(&b));
  }
  StorePair(state, 0, a);
  StorePair(state, 2, b);
}

void FillUniformNeon(uint64_t state[4][kLanes], double* out, size_t n) {
  Pair a = LoadPair(state, 0);
  Pair b = LoadPair(state, 2);
  for (size_t i = 0; i < n; i += 4) {
    vst1q_f64(out + i, ToUnit(Step(&a)));
    vst1q_f64(out + i + 2, ToUnit(Step(&b)));
  }
  StorePair(state, 0, a);
  StorePair(state, 2, b);
}

void FillSignsNeon(uint64_t state[4][kLanes], double* out, size_t n,
                   double p_plus) {
  Pair a = LoadPair(state, 0);
  Pair b = LoadPair(state, 2);
  const float64x2_t p = vdupq_n_f64(p_plus);
  const float64x2_t plus = vdupq_n_f64(1.0);
  const float64x2_t minus = vdupq_n_f64(-1.0);
  for (size_t i = 0; i < n; i += 4) {
    const float64x2_t ua = ToUnit(Step(&a));
    const float64x2_t ub = ToUnit(Step(&b));
    vst1q_f64(out + i, vbslq_f64(vcltq_f64(ua, p), plus, minus));
    vst1q_f64(out + i + 2, vbslq_f64(vcltq_f64(ub, p), plus, minus));
  }
  StorePair(state, 0, a);
  StorePair(state, 2, b);
}

void FillLogTailsNeon(uint64_t state[4][kLanes], double* out, size_t n) {
  Pair a = LoadPair(state, 0);
  Pair b = LoadPair(state, 2);
  for (size_t i = 0; i < n; i += 4) {
    vst1q_f64(out + i, LogTails2(Step(&a)));
    vst1q_f64(out + i + 2, LogTails2(Step(&b)));
  }
  StorePair(state, 0, a);
  StorePair(state, 2, b);
}

}  // namespace nmc::common::batch_rng_detail

#endif  // NMC_SIMD_NEON
