#include "streams/chunked.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace nmc::streams {

namespace {

/// Clamps a chunk request to the items the source still owes.
size_t ChunkCount(std::span<double> out, int64_t n, int64_t produced) {
  return std::min(out.size(), static_cast<size_t>(n - produced));
}

}  // namespace

BernoulliSource::BernoulliSource(int64_t n, double mu, uint64_t seed)
    : n_(n), p_plus_((1.0 + mu) / 2.0), batch_(seed) {
  NMC_CHECK_GE(n, 0);
  NMC_CHECK_GE(mu, -1.0);
  NMC_CHECK_LE(mu, 1.0);
}

int64_t BernoulliSource::FillChunk(std::span<double> out) {
  const size_t count = ChunkCount(out, n_, produced_);
  batch_.FillSigns(out.first(count), p_plus_);
  produced_ += static_cast<int64_t>(count);
  return static_cast<int64_t>(count);
}

FractionalIidSource::FractionalIidSource(int64_t n, double mu,
                                         double amplitude, uint64_t seed)
    : n_(n), mu_(mu), a_(std::min(1.0 - std::fabs(mu), amplitude)),
      batch_(seed) {
  NMC_CHECK_GE(n, 0);
  NMC_CHECK_GE(mu, -1.0);
  NMC_CHECK_LE(mu, 1.0);
  NMC_CHECK_GE(amplitude, 0.0);
}

int64_t FractionalIidSource::FillChunk(std::span<double> out) {
  const size_t count = ChunkCount(out, n_, produced_);
  // Bulk uniforms into the caller's buffer, then an in-place affine map
  // (elementwise, so order-independent and auto-vectorizable).
  batch_.FillUniform(out.first(count));
  for (size_t i = 0; i < count; ++i) {
    out[i] = mu_ + a_ * (2.0 * out[i] - 1.0);
  }
  produced_ += static_cast<int64_t>(count);
  return static_cast<int64_t>(count);
}

AlternatingSource::AlternatingSource(int64_t n) : n_(n) {
  NMC_CHECK_GE(n, 0);
}

int64_t AlternatingSource::FillChunk(std::span<double> out) {
  const size_t count = ChunkCount(out, n_, produced_);
  for (size_t i = 0; i < count; ++i) {
    const int64_t t = produced_ + static_cast<int64_t>(i);
    out[i] = (t % 2 == 0) ? 1.0 : -1.0;
  }
  produced_ += static_cast<int64_t>(count);
  return static_cast<int64_t>(count);
}

SawtoothSource::SawtoothSource(int64_t n, int64_t peak) : n_(n), peak_(peak) {
  NMC_CHECK_GE(n, 0);
  NMC_CHECK_GE(peak, 1);
}

int64_t SawtoothSource::FillChunk(std::span<double> out) {
  const size_t count = ChunkCount(out, n_, produced_);
  for (size_t i = 0; i < count; ++i) {
    out[i] = static_cast<double>(direction_);
    level_ += direction_;
    if (level_ >= peak_) direction_ = -1;
    if (level_ <= -peak_) direction_ = 1;
  }
  produced_ += static_cast<int64_t>(count);
  return static_cast<int64_t>(count);
}

std::vector<double> Materialize(sim::StreamSource* source) {
  NMC_CHECK(source != nullptr);
  std::vector<double> values(static_cast<size_t>(source->length()));
  std::span<double> remaining(values);
  int64_t filled;
  while (!remaining.empty() &&
         (filled = source->FillChunk(remaining)) > 0) {
    remaining = remaining.subspan(static_cast<size_t>(filled));
  }
  NMC_CHECK(remaining.empty());
  return values;
}

}  // namespace nmc::streams
