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
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  const __m256d one = _mm256_set1_pd(1.0);
  int64_t plus = 0;
  size_t i = 0;
  // Two vectors per iteration: one fused movemask test gates both, so the
  // loop-carried branch fires half as often as a 4-wide walk. The order
  // of popcount accumulation is irrelevant — the tally is integer-exact.
  const size_t bulk8 = n & ~static_cast<size_t>(7);
  for (; i < bulk8; i += 8) {
    const __m256d v0 = _mm256_loadu_pd(values + i);
    const __m256d v1 = _mm256_loadu_pd(values + i + 4);
    const int unit0 = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_and_pd(v0, abs_mask), one, _CMP_EQ_OQ));
    const int unit1 = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_and_pd(v1, abs_mask), one, _CMP_EQ_OQ));
    if ((unit0 & unit1) != 0xF) return SignTally{};
    const int head =
        _mm256_movemask_pd(_mm256_cmp_pd(v0, one, _CMP_EQ_OQ)) |
        (_mm256_movemask_pd(_mm256_cmp_pd(v1, one, _CMP_EQ_OQ)) << 4);
    plus += __builtin_popcount(static_cast<unsigned>(head));
  }
  const size_t bulk = n & ~static_cast<size_t>(3);
  for (; i < bulk; i += 4) {
    const __m256d v = _mm256_loadu_pd(values + i);
    const __m256d unit =
        _mm256_cmp_pd(_mm256_and_pd(v, abs_mask), one, _CMP_EQ_OQ);
    if (_mm256_movemask_pd(unit) != 0xF) return SignTally{};
    const int head = _mm256_movemask_pd(_mm256_cmp_pd(v, one, _CMP_EQ_OQ));
    plus += __builtin_popcount(static_cast<unsigned>(head));
  }
  const SignTally tail = TallySignsScalar(values + bulk, n - bulk);
  if (!tail.all_unit) return SignTally{};
  return SignTally{plus + tail.plus,
                   static_cast<int64_t>(bulk) - plus + tail.minus, true};
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
