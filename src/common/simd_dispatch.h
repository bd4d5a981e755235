#pragma once

namespace nmc::common {

/// Vector instruction sets the batch kernels (BatchRng, batch_ops) can
/// dispatch to. kScalar is always compiled in and is the correctness
/// oracle: every vector kernel must produce bit-identical output to the
/// scalar kernel for the same inputs — batch_rng_test enforces this on
/// every level the running CPU supports.
enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 1,
};

/// Name for logs and test output: "scalar", "avx2".
const char* SimdLevelName(SimdLevel level);

/// The level batch kernels currently dispatch to. Resolved once at startup
/// from CPUID; kScalar when the build disabled SIMD (-DNMC_SIMD=off), the
/// target is not x86-64, or the CPU lacks the instructions.
SimdLevel ActiveSimdLevel();

/// True iff `level`'s kernels are compiled in AND the CPU can run them.
bool SimdLevelAvailable(SimdLevel level);

/// Test hook: pin dispatch to `level`. Returns false (no change) if the
/// level is unavailable. Lets a single binary compare scalar and vector
/// kernels bit-for-bit. The dispatch global is a relaxed atomic, so a
/// Force racing concurrent Fill calls is race-free — each Fill just picks
/// the old or the new (bit-identical) kernel.
bool ForceSimdLevel(SimdLevel level);

/// Undo ForceSimdLevel: back to auto-detection.
void ResetSimdLevel();

}  // namespace nmc::common
