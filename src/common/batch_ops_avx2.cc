// AVX2 kernels for batch_ops. The prefix sums regroup additions, which is
// legal here only because the dispatcher guarantees every value is ±1.0
// and the running sum stays an exactly-representable integer — under that
// precondition every grouping yields identical bits, so these kernels
// match the scalar oracle exactly.

#include "common/batch_ops_kernels.h"

#if NMC_SIMD_AVX2

#include <immintrin.h>

namespace nmc::common::batch_ops_detail {
namespace {

// [a0 a1 a2 a3] -> [0 a0 a1 a2]
inline __m256d ShiftIn1(__m256d a) {
  const __m256d z = _mm256_permute2f128_pd(a, a, 0x08);  // [0 0 a0 a1]
  return _mm256_shuffle_pd(z, a, 0x4);
}

// [a0 a1 a2 a3] -> [0 0 a0 a1]
inline __m256d ShiftIn2(__m256d a) { return _mm256_permute2f128_pd(a, a, 0x08); }

inline double HorizontalMax(__m256d x) {
  const __m128d lo = _mm256_castpd256_pd128(x);
  const __m128d hi = _mm256_extractf128_pd(x, 1);
  const __m128d m2 = _mm_max_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_max_sd(m2, _mm_unpackhi_pd(m2, m2)));
}

}  // namespace

SignTally TallySignsAvx2(const double* values, size_t n) {
  // Integer domain: a value is ±1.0 iff its bits with the sign cleared are
  // those of 1.0, so ((bits & abs) ^ one) is zero exactly for ±1.0 (±0,
  // NaN, ±inf, denormals and 1 ± ulp all leave a bit set). Those words
  // fold into one OR-accumulator and the sign bits, shifted down, into two
  // independent add chains; the gate is tested once, after the loop, so
  // the loop has no data-dependent branch. The tally is integer-exact, so
  // the order of accumulation is irrelevant.
  const __m256i abs_mask = _mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL);
  const __m256i one = _mm256_set1_epi64x(0x3FF0000000000000LL);
  __m256i bad = _mm256_setzero_si256();
  __m256i neg0 = _mm256_setzero_si256();
  __m256i neg1 = _mm256_setzero_si256();
  const auto absorb = [&](__m256i v, __m256i* neg) {
    bad = _mm256_or_si256(
        bad, _mm256_xor_si256(_mm256_and_si256(v, abs_mask), one));
    *neg = _mm256_add_epi64(*neg, _mm256_srli_epi64(v, 63));
  };
  const auto load = [&](size_t at) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + at));
  };
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    absorb(load(i), &neg0);
    absorb(load(i + 4), &neg1);
  }
  if (i + 4 <= n) {
    absorb(load(i), &neg0);
    i += 4;
  }
  if (i < n) {
    // The last 1-3 values through a masked load, which neither reads nor
    // faults past n; the masked-off lanes are filled with +1.0, which
    // passes the gate and adds no sign bit.
    const __m256i live = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(n - i)),
        _mm256_setr_epi64x(0, 1, 2, 3));
    const __m256i tail = _mm256_maskload_epi64(
        reinterpret_cast<const long long*>(values + i), live);
    absorb(_mm256_blendv_epi8(one, tail, live), &neg0);
  }
  if (!_mm256_testz_si256(bad, bad)) return SignTally{};
  const __m256i neg = _mm256_add_epi64(neg0, neg1);
  const __m128i pair = _mm_add_epi64(_mm256_castsi256_si128(neg),
                                     _mm256_extracti128_si256(neg, 1));
  const int64_t minus =
      _mm_cvtsi128_si64(_mm_add_epi64(pair, _mm_unpackhi_epi64(pair, pair)));
  return SignTally{static_cast<int64_t>(n) - minus, minus, true};
}

void ExpandSelectorsAvx2(uint64_t a, uint64_t flip, uint64_t selectors,
                         int count, double* out) {
  // Lane j of each store takes selector bit i + j: the word is broadcast,
  // ANDed with {1, 2, 4, 8} and compared back, which gives the all-ones
  // mask that picks flip, and shifted down 4 bits per store.
  const __m256i lane_bits = _mm256_setr_epi64x(1, 2, 4, 8);
  const __m256i av = _mm256_set1_epi64x(static_cast<long long>(a));
  const __m256i fv = _mm256_set1_epi64x(static_cast<long long>(flip));
  __m256i sel = _mm256_set1_epi64x(static_cast<long long>(selectors));
  const auto expand = [&]() {
    const __m256i pick = _mm256_cmpeq_epi64(
        _mm256_and_si256(sel, lane_bits), lane_bits);
    return _mm256_xor_si256(av, _mm256_and_si256(fv, pick));
  };
  int i = 0;
  for (; i + 4 <= count; i += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), expand());
    sel = _mm256_srli_epi64(sel, 4);
  }
  if (i < count) {
    // Lanes at or past count are masked off: vpmaskmovq neither writes
    // nor faults there.
    const __m256i live = _mm256_cmpgt_epi64(_mm256_set1_epi64x(count - i),
                                            _mm256_setr_epi64x(0, 1, 2, 3));
    _mm256_maskstore_epi64(reinterpret_cast<long long*>(out + i), live,
                           expand());
  }
}

void CheckUnitPrefixAvx2(const double* values, size_t n, double estimate,
                         double epsilon, double slack, double rel_floor,
                         PrefixState* state) {
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  const __m256d est = _mm256_set1_pd(estimate);
  const __m256d eps = _mm256_set1_pd(epsilon);
  const __m256d slk = _mm256_set1_pd(slack);
  const __m256d floor_v = _mm256_set1_pd(rel_floor);
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d carry = _mm256_set1_pd(state->sum);
  __m256d max_rel = _mm256_setzero_pd();
  int64_t violations = state->violations;
  for (size_t i = 0; i < n; i += 4) {
    const __m256d v = _mm256_loadu_pd(values + i);
    // In-register inclusive prefix sum (exact: ±1 integers). The local
    // prefix and its block total are computed carry-free so the only
    // loop-carried dependency is the single carry add below.
    const __m256d t1 = _mm256_add_pd(v, ShiftIn1(v));
    const __m256d local = _mm256_add_pd(t1, ShiftIn2(t1));
    const __m256d block_total = _mm256_permute4x64_pd(local, 0xFF);
    const __m256d sum = _mm256_add_pd(local, carry);
    carry = _mm256_add_pd(carry, block_total);
    const __m256d abs_err = _mm256_and_pd(_mm256_sub_pd(est, sum), abs_mask);
    const __m256d abs_sum = _mm256_and_pd(sum, abs_mask);
    const __m256d threshold = _mm256_add_pd(_mm256_mul_pd(eps, abs_sum), slk);
    const int viol =
        _mm256_movemask_pd(_mm256_cmp_pd(abs_err, threshold, _CMP_GT_OQ));
    violations += __builtin_popcount(static_cast<unsigned>(viol));
    const __m256d in_floor = _mm256_cmp_pd(abs_sum, floor_v, _CMP_GE_OQ);
    // Lanes below the floor divide by 1.0 instead (then mask to zero), so
    // no 0/0 NaN is ever manufactured.
    const __m256d denom = _mm256_blendv_pd(one, abs_sum, in_floor);
    const __m256d rel =
        _mm256_and_pd(_mm256_div_pd(abs_err, denom), in_floor);
    max_rel = _mm256_max_pd(max_rel, rel);
  }
  state->sum = _mm_cvtsd_f64(_mm256_castpd256_pd128(carry));
  state->violations = violations;
  const double mr = HorizontalMax(max_rel);
  if (mr > state->max_rel_error) state->max_rel_error = mr;
}

}  // namespace nmc::common::batch_ops_detail

#endif  // NMC_SIMD_AVX2
