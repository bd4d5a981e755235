#pragma once

// Internal kernel contract for batch_ops (see batch_ops.h). As with
// batch_rng_kernels.h, the scalar kernels are the oracle and the vector
// TUs must be bit-identical; include batch_ops.h instead of this.

#include <cstddef>
#include <cstdint>

#include "common/batch_ops.h"

namespace nmc::common::batch_ops_detail {

/// Running state for the prefix check; final_sum lives in result.
struct PrefixState {
  double sum;
  double max_rel_error;
  int64_t violations;
};

SignTally TallySignsScalar(const double* values, size_t n);
void ExpandSelectorsScalar(uint64_t a, uint64_t flip, uint64_t selectors,
                           int count, double* out);
void CheckUnitPrefixScalar(const double* values, size_t n, double estimate,
                           double epsilon, double slack, double rel_floor,
                           PrefixState* state);

#if NMC_SIMD_AVX2
SignTally TallySignsAvx2(const double* values, size_t n);
void ExpandSelectorsAvx2(uint64_t a, uint64_t flip, uint64_t selectors,
                         int count, double* out);
/// n must be a multiple of 4; the dispatcher handles the tail with the
/// scalar kernel (exactness makes the split invisible).
void CheckUnitPrefixAvx2(const double* values, size_t n, double estimate,
                         double epsilon, double slack, double rel_floor,
                         PrefixState* state);
#endif

}  // namespace nmc::common::batch_ops_detail
