#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>
#include <cstring>

#include "sim/message.h"

namespace nmc::sim {

/// Canonical wire image of a Message: the five fields in declaration order,
/// each as a fixed-width little-endian word, doubles as their IEEE-754 bit
/// patterns (so NaN payloads and signed zeros survive a round trip bit for
/// bit). This mapping is part of the sim contract — renaming or reordering
/// Message's fields is a wire-format change and must bump
/// runtime::wire::kVersion. Framing (magic, version, length) lives one
/// layer up in runtime/wire.h; this header only fixes the payload layout.
///
///   offset  size  field
///        0     4  type  (int32, two's complement)
///        4     8  a     (double, IEEE-754 bits)
///       12     8  b     (double, IEEE-754 bits)
///       20     8  u     (int64, two's complement)
///       28     8  v     (int64, two's complement)
inline constexpr size_t kMessageWireBytes = 36;

namespace wire_detail {

// Whole-word loads and stores: one memcpy per field, byte-swapped only on
// a big-endian host, so the image is little-endian everywhere.

inline void PutLe32(uint32_t word, uint8_t* out) {
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap32(word);
  }
  std::memcpy(out, &word, sizeof(word));
}

inline void PutLe64(uint64_t word, uint8_t* out) {
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  std::memcpy(out, &word, sizeof(word));
}

inline uint32_t GetLe32(const uint8_t* in) {
  uint32_t word;
  std::memcpy(&word, in, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap32(word);
  }
  return word;
}

inline uint64_t GetLe64(const uint8_t* in) {
  uint64_t word;
  std::memcpy(&word, in, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

}  // namespace wire_detail

/// Serializes `message` into exactly kMessageWireBytes at `out`.
inline void PackMessage(const Message& message, uint8_t* out) {
  wire_detail::PutLe32(static_cast<uint32_t>(message.type), out);
  wire_detail::PutLe64(std::bit_cast<uint64_t>(message.a), out + 4);
  wire_detail::PutLe64(std::bit_cast<uint64_t>(message.b), out + 12);
  wire_detail::PutLe64(static_cast<uint64_t>(message.u), out + 20);
  wire_detail::PutLe64(static_cast<uint64_t>(message.v), out + 28);
}

/// Inverse of PackMessage over exactly kMessageWireBytes at `in`. Every
/// byte pattern decodes (the payload is dense); framing-level validation
/// is the caller's job.
inline Message UnpackMessage(const uint8_t* in) {
  Message message;
  message.type = static_cast<int>(
      static_cast<int32_t>(wire_detail::GetLe32(in)));
  message.a = std::bit_cast<double>(wire_detail::GetLe64(in + 4));
  message.b = std::bit_cast<double>(wire_detail::GetLe64(in + 12));
  message.u = static_cast<int64_t>(wire_detail::GetLe64(in + 20));
  message.v = static_cast<int64_t>(wire_detail::GetLe64(in + 28));
  return message;
}

/// Bitwise message equality (doubles compared as bit patterns, so NaNs and
/// signed zeros compare the way the wire transports them).
inline bool MessageBitsEqual(const Message& lhs, const Message& rhs) {
  return lhs.type == rhs.type &&
         std::bit_cast<uint64_t>(lhs.a) == std::bit_cast<uint64_t>(rhs.a) &&
         std::bit_cast<uint64_t>(lhs.b) == std::bit_cast<uint64_t>(rhs.b) &&
         lhs.u == rhs.u && lhs.v == rhs.v;
}

}  // namespace nmc::sim
