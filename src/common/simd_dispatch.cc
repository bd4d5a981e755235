#include "common/simd_dispatch.h"

#include <atomic>

namespace nmc::common {
namespace {

SimdLevel Detect() {
#if NMC_SIMD_AVX2
  // The AVX2 TUs are compiled -mavx2 -mfma (the gap kernel fuses), so
  // dispatch requires both bits even though FMA ships on every AVX2 part
  // in practice — a VM masking FMA must fall back to scalar, not fault.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return SimdLevel::kAvx2;
  }
#endif
  return SimdLevel::kScalar;
}

// Relaxed ordering is all dispatch needs: every level's kernel is
// bit-identical on the same inputs, so a thread racing a Force/Reset only
// ever picks one of two correct kernels.
// nmc-lint: allow(NO_MUTABLE_GLOBAL_STATE) the dispatch level is inherently process-wide; reads and the test-hook writes are relaxed atomics, so any interleaving is race-free
std::atomic<SimdLevel> g_active{Detect()};

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel ActiveSimdLevel() {
  return g_active.load(std::memory_order_relaxed);
}

bool SimdLevelAvailable(SimdLevel level) {
  if (level == SimdLevel::kScalar) return true;
#if NMC_SIMD_AVX2
  if (level == SimdLevel::kAvx2) {
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }
#endif
  return false;
}

bool ForceSimdLevel(SimdLevel level) {
  if (!SimdLevelAvailable(level)) return false;
  g_active.store(level, std::memory_order_relaxed);
  return true;
}

void ResetSimdLevel() {
  g_active.store(Detect(), std::memory_order_relaxed);
}

}  // namespace nmc::common
