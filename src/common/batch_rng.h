#pragma once

#include <cstdint>
#include <span>

namespace nmc::common {

/// Number of independent xoshiro256++ lanes in a BatchRng. Four 64-bit
/// lanes fill one AVX2 register; the scalar kernel walks them
/// round-robin. The lane count is part of the output contract (element i
/// comes from lane i mod 4), not a tuning knob.
inline constexpr int kBatchRngLanes = 4;

/// Multi-lane xoshiro256++ that fills spans of raw u64s, uniforms, ±1
/// signs, and log-tails (the skip sampler's feed) in bulk, dispatching to
/// AVX2 kernels at runtime (see simd_dispatch.h) with a scalar fallback
/// that is the correctness oracle — vector kernels are bit-identical to
/// it.
///
/// Output contract: the generator defines ONE logical u64 stream,
/// round-robin interleaved over the lanes (element i of the stream comes
/// from lane i mod kBatchRngLanes). Every Fill* consumes stream elements
/// 1:1 in order and is slicing-invariant: filling n then m elements yields
/// exactly the values of filling n+m at once, regardless of dispatch
/// level. Incomplete lane quadruples are buffered across calls.
///
/// Not bit-compatible with scalar common::Rng sequences: switching a
/// caller between the two changes its fixed-seed output.
class BatchRng {
 public:
  /// A single SplitMix64 chain from `seed` yields one sub-seed per lane,
  /// and lane j is an ordinary common::Rng built from sub-seed j: lane j's
  /// raw output is exactly Rng(LaneSeed(seed, j)).NextU64()'s sequence.
  explicit BatchRng(uint64_t seed);

  /// The sub-seed lane `lane` is constructed from (exposed for the
  /// scalar-oracle tests).
  static uint64_t LaneSeed(uint64_t seed, int lane);

  /// Next `out.size()` raw stream elements.
  void FillU64(std::span<uint64_t> out);

  /// Uniforms in [0, 1) with 53 random bits — same u64→double mapping as
  /// Rng::UniformDouble.
  void FillUniform(std::span<double> out);

  /// ±1.0 signs: +1.0 where uniform < p_plus, else -1.0. One stream
  /// element per output.
  void FillSigns(std::span<double> out, double p_plus);

  /// log(u) for the uniform (0, 1] tail u of each stream element: the
  /// rate-free half of a geometric gap. GeometricSkip turns one into a
  /// Geometric(p) gap as floor(log(u) / log1p(-p)), so a block of tails
  /// serves any mix of rates. Uses a portable polynomial log shared by all
  /// kernels, so tails are bit-identical across SIMD levels but
  /// deliberately NOT std::log (see batch_rng_kernels.h).
  void FillLogTails(std::span<double> out);

  /// One element of the logical stream.
  uint64_t NextU64();

  /// Independent child generator seeded from the next stream element.
  BatchRng Child();

 private:
  void Refill();  // one scalar quadruple step into the carry buffer

  // Structure-of-arrays state: state_[w][l] is word w of lane l, so a
  // vector kernel loads word w of all four lanes with one 256-bit load.
  alignas(32) uint64_t state_[4][kBatchRngLanes];
  // Partially consumed lane quadruple; entries carry_pos_..kLanes-1 valid.
  uint64_t carry_[kBatchRngLanes];
  int carry_pos_ = kBatchRngLanes;
};

}  // namespace nmc::common
