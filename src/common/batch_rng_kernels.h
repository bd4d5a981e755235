#pragma once

// Internal kernel contract for BatchRng (see batch_rng.h). Each SIMD level
// implements the same four bulk fills over the shared SoA lane state; the
// scalar versions below are the oracle, and every vector TU must follow the
// exact same floating-point op sequence so outputs are bit-identical.
// Nothing here is public API — include batch_rng.h instead.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace nmc::common::batch_rng_detail {

inline constexpr int kLanes = 4;

/// Same SplitMix64 as common::Rng's seeder — the lane-decomposition
/// guarantee in batch_rng.h depends on these constants matching rng.cc.
inline uint64_t SplitMix64(uint64_t* x) {
  *x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = *x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline uint64_t RotL(uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// One xoshiro256++ step of lane `lane` — identical recurrence to
/// Rng::NextU64 over the strided SoA state.
inline uint64_t StepLane(uint64_t state[4][kLanes], int lane) {
  uint64_t s0 = state[0][lane];
  uint64_t s1 = state[1][lane];
  uint64_t s2 = state[2][lane];
  uint64_t s3 = state[3][lane];
  const uint64_t result = RotL(s0 + s3, 23) + s0;
  const uint64_t t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = RotL(s3, 45);
  state[0][lane] = s0;
  state[1][lane] = s1;
  state[2][lane] = s2;
  state[3][lane] = s3;
  return result;
}

/// Same mapping as Rng::UniformDouble: top 53 bits to [0, 1).
inline double U64ToUnit(uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

// --- Portable log for the skip sampler's tail feed ---------------------------
//
// Vector ISAs have no correctly-rounded log, and mixing std::log (scalar)
// with a vendor vector log would break scalar/SIMD bit-identity. Instead all
// levels use this shared atanh-series polynomial, evaluated with the exact
// same op sequence: -ffp-contract=off forbids *hidden* contraction, and
// where the sequence says "fused" it uses explicit fma (std::fma here,
// the hardware fused op in the vector TUs) — single-rounded and therefore
// identical everywhere IEEE-754 holds.
// After reducing the mantissa to [sqrt(1/2), sqrt(2)) the series argument
// z = (m-1)/(m+1) satisfies z^2 <= 0.0295; five terms leave an absolute
// error below 7e-10 in the log, which perturbs a geometric gap's floor()
// boundary with probability < 1e-6 per draw even at p ~ 2^-10 — utterly
// invisible to sampling, but NOT bit-identical to std::log, which is why
// skip-sampler gaps are a different (still geometric) sequence than
// scalar Rng::Geometric. Estrin evaluation keeps the dependency chain
// short enough for out-of-order cores to overlap adjacent tail blocks —
// with the old 9-term Horner the fill was latency-bound, not port-bound.

inline constexpr double kLogCoeff[5] = {2.0, 2.0 / 3.0, 2.0 / 5.0, 2.0 / 7.0,
                                        2.0 / 9.0};
inline constexpr double kSqrtHalf = 0.70710678118654752440;
inline constexpr double kLn2 = 0.69314718055994530942;

/// log(u) for normal u in (0, 1]; the scalar oracle for the vector twins.
inline double PolyLog(double u) {
  const uint64_t bits = std::bit_cast<uint64_t>(u);
  int64_t e = static_cast<int64_t>((bits >> 52) & 0x7FFULL) - 1022;
  double m =
      std::bit_cast<double>((bits & 0xFFFFFFFFFFFFFULL) | 0x3FE0000000000000ULL);
  if (m < kSqrtHalf) {
    m = m + m;
    e -= 1;
  }
  const double z = (m - 1.0) / (m + 1.0);
  const double w = z * z;
  // Estrin with explicit fma: a fixed op tree shared with the vector
  // twins, and a short dependency chain so adjacent tail blocks overlap.
  const double w2 = w * w;
  const double a = std::fma(kLogCoeff[1], w, kLogCoeff[0]);
  const double b = std::fma(kLogCoeff[3], w, kLogCoeff[2]);
  const double p = std::fma(w2, std::fma(w2, kLogCoeff[4], b), a);
  return std::fma(z, p, static_cast<double>(e) * kLn2);
}

/// Uniform (0, 1] tail straight from 52 random bits: overlay them onto
/// [1, 2) and reflect around 2. Skips the exact u64->double conversion the
/// uniform/sign fills need — a gap only cares about the tail's
/// distribution, and 2^-52 granularity is far below anything the
/// geometric floor() can resolve. Never 0, never denormal.
inline double TailFromU64(uint64_t x) {
  return 2.0 - std::bit_cast<double>((x >> 12) | 0x3FF0000000000000ULL);
}

/// log of the (0, 1] tail of one raw xoshiro output: the rate-free half
/// of a geometric gap (GeometricSkip scales it by 1/log1p(-p) and floors).
inline double LogTailFromU64(uint64_t x) { return PolyLog(TailFromU64(x)); }

// --- Bulk kernels (n must be a multiple of kLanes) --------------------------
// Element i of `out` comes from lane i % kLanes; each kernel advances every
// lane by n / kLanes steps.

void FillU64Scalar(uint64_t state[4][kLanes], uint64_t* out, size_t n);
void FillUniformScalar(uint64_t state[4][kLanes], double* out, size_t n);
void FillSignsScalar(uint64_t state[4][kLanes], double* out, size_t n,
                     double p_plus);
void FillLogTailsScalar(uint64_t state[4][kLanes], double* out, size_t n);

#if NMC_SIMD_AVX2
void FillU64Avx2(uint64_t state[4][kLanes], uint64_t* out, size_t n);
void FillUniformAvx2(uint64_t state[4][kLanes], double* out, size_t n);
void FillSignsAvx2(uint64_t state[4][kLanes], double* out, size_t n,
                   double p_plus);
void FillLogTailsAvx2(uint64_t state[4][kLanes], double* out, size_t n);
#endif

}  // namespace nmc::common::batch_rng_detail
