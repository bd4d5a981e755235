// AVX2 kernels for BatchRng. Compiled with -mavx2 -mfma; the whole tree
// builds with -ffp-contract=off, so nothing fuses implicitly — every
// _mm256 op below (including the explicit _mm256_fmadd_pd calls, which
// mirror std::fma in the scalar oracle) maps 1:1 onto the scalar op
// sequence in batch_rng.cc / batch_rng_kernels.h. Outputs are
// bit-identical by construction, and batch_rng_test enforces it.

#include "common/batch_rng_kernels.h"

#if NMC_SIMD_AVX2

#include <immintrin.h>

namespace nmc::common::batch_rng_detail {
namespace {

struct Regs {
  __m256i s0, s1, s2, s3;
};

inline Regs LoadState(uint64_t state[4][kLanes]) {
  return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(state[0])),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state[1])),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state[2])),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state[3]))};
}

inline void StoreState(uint64_t state[4][kLanes], const Regs& r) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state[0]), r.s0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state[1]), r.s1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state[2]), r.s2);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state[3]), r.s3);
}

template <int K>
inline __m256i RotL64(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, K), _mm256_srli_epi64(x, 64 - K));
}

/// One xoshiro256++ step of all four lanes; returns the four outputs in
/// lane order (element i of the result is lane i — exactly the scalar
/// kernel's round-robin interleave).
inline __m256i Step(Regs* r) {
  const __m256i result =
      _mm256_add_epi64(RotL64<23>(_mm256_add_epi64(r->s0, r->s3)), r->s0);
  const __m256i t = _mm256_slli_epi64(r->s1, 17);
  r->s2 = _mm256_xor_si256(r->s2, r->s0);
  r->s3 = _mm256_xor_si256(r->s3, r->s1);
  r->s1 = _mm256_xor_si256(r->s1, r->s2);
  r->s0 = _mm256_xor_si256(r->s0, r->s3);
  r->s2 = _mm256_xor_si256(r->s2, t);
  r->s3 = RotL64<45>(r->s3);
  return result;
}

/// u64 -> [0,1): bit-exact twin of U64ToUnit. AVX2 has no u64->f64
/// convert, so the 53-bit value (x >> 11) is split into a 22-bit high and
/// 31-bit low half, each converted exactly via the 2^52 mantissa-overlay
/// trick; hi*2^31 + lo is then an exact integer sum (< 2^53) and the final
/// power-of-two scale is exact too — every step correctly rounded, so the
/// result equals the scalar static_cast path bit for bit.
inline __m256d ToUnit(__m256i x) {
  const __m256i y = _mm256_srli_epi64(x, 11);
  const __m256i hi = _mm256_srli_epi64(y, 31);
  const __m256i lo = _mm256_and_si256(y, _mm256_set1_epi64x(0x7FFFFFFF));
  const __m256d magic = _mm256_set1_pd(0x1.0p52);
  const __m256i magic_bits = _mm256_castpd_si256(magic);
  const __m256d hid = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(hi, magic_bits)), magic);
  const __m256d lod = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(lo, magic_bits)), magic);
  const __m256d value =
      _mm256_add_pd(_mm256_mul_pd(hid, _mm256_set1_pd(0x1.0p31)), lod);
  return _mm256_mul_pd(value, _mm256_set1_pd(0x1.0p-53));
}

/// Four-wide twin of PolyLog — same reduction, same Estrin tree.
inline __m256d PolyLog4(__m256d u) {
  const __m256i bits = _mm256_castpd_si256(u);
  __m256i e = _mm256_sub_epi64(
      _mm256_and_si256(_mm256_srli_epi64(bits, 52), _mm256_set1_epi64x(0x7FF)),
      _mm256_set1_epi64x(1022));
  __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(0xFFFFFFFFFFFFFLL)),
      _mm256_set1_epi64x(0x3FE0000000000000LL)));
  const __m256d small = _mm256_cmp_pd(m, _mm256_set1_pd(kSqrtHalf), _CMP_LT_OQ);
  m = _mm256_blendv_pd(m, _mm256_add_pd(m, m), small);
  e = _mm256_sub_epi64(
      e, _mm256_and_si256(_mm256_castpd_si256(small), _mm256_set1_epi64x(1)));
  const __m256d z = _mm256_div_pd(_mm256_sub_pd(m, _mm256_set1_pd(1.0)),
                                  _mm256_add_pd(m, _mm256_set1_pd(1.0)));
  const __m256d w = _mm256_mul_pd(z, z);
  const __m256d w2 = _mm256_mul_pd(w, w);
  const __m256d a = _mm256_fmadd_pd(_mm256_set1_pd(kLogCoeff[1]), w,
                                    _mm256_set1_pd(kLogCoeff[0]));
  const __m256d b = _mm256_fmadd_pd(_mm256_set1_pd(kLogCoeff[3]), w,
                                    _mm256_set1_pd(kLogCoeff[2]));
  const __m256d inner =
      _mm256_fmadd_pd(w2, _mm256_set1_pd(kLogCoeff[4]), b);
  const __m256d p = _mm256_fmadd_pd(w2, inner, a);
  // Exact small-signed-int64 -> double via the 1.5*2^52 overlay.
  const __m256d shifter = _mm256_set1_pd(0x1.8p52);
  const __m256d ed = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_add_epi64(e, _mm256_castpd_si256(shifter))),
      shifter);
  return _mm256_fmadd_pd(z, p, _mm256_mul_pd(ed, _mm256_set1_pd(kLn2)));
}

/// Four-wide twin of LogTailFromU64 (bit-overlay tail, then PolyLog4).
inline __m256d LogTails4(__m256i x) {
  const __m256d tail = _mm256_sub_pd(
      _mm256_set1_pd(2.0),
      _mm256_castsi256_pd(_mm256_or_si256(
          _mm256_srli_epi64(x, 12),
          _mm256_set1_epi64x(0x3FF0000000000000LL))));
  return PolyLog4(tail);
}

}  // namespace

void FillU64Avx2(uint64_t state[4][kLanes], uint64_t* out, size_t n) {
  Regs r = LoadState(state);
  for (size_t i = 0; i < n; i += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), Step(&r));
  }
  StoreState(state, r);
}

void FillUniformAvx2(uint64_t state[4][kLanes], double* out, size_t n) {
  Regs r = LoadState(state);
  for (size_t i = 0; i < n; i += 4) {
    _mm256_storeu_pd(out + i, ToUnit(Step(&r)));
  }
  StoreState(state, r);
}

void FillSignsAvx2(uint64_t state[4][kLanes], double* out, size_t n,
                   double p_plus) {
  Regs r = LoadState(state);
  const __m256d p = _mm256_set1_pd(p_plus);
  const __m256d plus = _mm256_set1_pd(1.0);
  const __m256d minus = _mm256_set1_pd(-1.0);
  for (size_t i = 0; i < n; i += 4) {
    const __m256d u = ToUnit(Step(&r));
    const __m256d head = _mm256_cmp_pd(u, p, _CMP_LT_OQ);
    _mm256_storeu_pd(out + i, _mm256_blendv_pd(minus, plus, head));
  }
  StoreState(state, r);
}

void FillLogTailsAvx2(uint64_t state[4][kLanes], double* out, size_t n) {
  Regs r = LoadState(state);
  // Two blocks per iteration: the state recurrence between the Step calls
  // is only a few xors deep, while each PolyLog4 tree is long —
  // interleaving two independent trees keeps the divider and FP ports busy.
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x0 = Step(&r);
    const __m256i x1 = Step(&r);
    _mm256_storeu_pd(out + i, LogTails4(x0));
    _mm256_storeu_pd(out + i + 4, LogTails4(x1));
  }
  for (; i < n; i += 4) _mm256_storeu_pd(out + i, LogTails4(Step(&r)));
  StoreState(state, r);
}

}  // namespace nmc::common::batch_rng_detail

#endif  // NMC_SIMD_AVX2
