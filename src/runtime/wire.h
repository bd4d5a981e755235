#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

#include "sim/message.h"
#include "sim/message_wire.h"

namespace nmc::runtime::wire {

/// Versioned length-prefixed framing of sim::Message for the sockets
/// transport — the explicit wire contract the in-process backends never
/// needed. One frame:
///
///   offset  size  field
///        0     4  magic    0x314D434E ("NCM1" on the wire, little-endian)
///        4     2  version  kVersion (decoders reject anything else)
///        6     2  length   payload bytes; must equal sim::kMessageWireBytes
///        8    36  payload  sim::PackMessage image (see sim/message_wire.h)
///
/// The length field is validated against the version's fixed payload size
/// before any payload byte is touched, so truncated, oversized, and
/// garbage frames are rejected cleanly instead of desynchronizing the
/// stream decoder.
inline constexpr uint32_t kMagic = 0x314D434Eu;
inline constexpr uint16_t kVersion = 1;
inline constexpr size_t kHeaderBytes = 8;
inline constexpr size_t kFrameBytes = kHeaderBytes + sim::kMessageWireBytes;
/// The 8 header bytes of every valid frame, read as one little-endian word
/// (magic | version << 32 | length << 48).
inline constexpr uint64_t kHeaderWord =
    uint64_t{kMagic} | (uint64_t{kVersion} << 32) |
    (uint64_t{sim::kMessageWireBytes} << 48);

enum class DecodeStatus {
  kOk = 0,
  kNeedMore,    // the buffer ends mid-frame; feed more bytes and retry
  kBadMagic,    // first 4 bytes are not kMagic — stream is desynchronized
  kBadVersion,  // framed by a peer speaking a different wire version
  kBadLength,   // length field disagrees with the version's payload size
};

const char* DecodeStatusName(DecodeStatus status);

/// Serializes one frame (header + payload) into exactly kFrameBytes at
/// `out`.
void EncodeFrame(const sim::Message& message, uint8_t* out);

/// EncodeFrame appended to a byte vector.
void AppendFrame(const sim::Message& message, std::vector<uint8_t>* out);

struct Decoded {
  DecodeStatus status = DecodeStatus::kNeedMore;
  /// Bytes consumed from the input on kOk (always kFrameBytes); 0 on any
  /// other status — a malformed prefix is never silently skipped.
  size_t consumed = 0;
  sim::Message message;
};

/// Decodes the frame at the front of `bytes`. Validation order: magic,
/// version, length, then completeness — so a wrong-version frame is
/// reported as kBadVersion even when truncated past the header.
Decoded DecodeFrame(std::span<const uint8_t> bytes);

/// Incremental frame decoder over a byte stream (a socket read loop feeds
/// arbitrary chunk boundaries; frames come out whole). A framing error is
/// sticky: once the stream is desynchronized there is no reliable way to
/// find the next frame boundary, so every later Next() repeats the error
/// and the connection should be torn down.
class FrameReassembler {
 public:
  /// Appends raw stream bytes (chunks may split frames anywhere).
  void Feed(std::span<const uint8_t> bytes);

  /// Returns room for `n` more stream bytes, to be filled in place (a
  /// `recv` straight into the reassembler) and then published by Commit.
  /// The pointer is valid until the next Feed/Reserve.
  uint8_t* Reserve(size_t n);

  /// Appends the first `n` bytes of the last Reserve's room.
  void Commit(size_t n);

  /// Pops the next complete frame into *out. Returns kOk with *out filled,
  /// kNeedMore when the buffer holds no complete frame (*out untouched),
  /// or the sticky framing error. A whole frame whose header matches
  /// kHeaderWord decodes inline; anything else (a partial frame, a bad
  /// header, a dead stream) takes DecodeFrame's path, statuses included.
  DecodeStatus Next(sim::Message* out) {
    if (end_ - pos_ >= kFrameBytes && corrupt_ == DecodeStatus::kOk) {
      const uint8_t* frame = buffer_.data() + pos_;
      if (sim::wire_detail::GetLe64(frame) == kHeaderWord) {
        *out = sim::UnpackMessage(frame + kHeaderBytes);
        pos_ += kFrameBytes;
        return DecodeStatus::kOk;
      }
    }
    return NextSlow(out);
  }

  /// Bytes buffered but not yet decoded (a partial trailing frame).
  size_t buffered_bytes() const { return end_ - pos_; }

  /// True after any framing error; the stream cannot be re-synchronized.
  bool corrupt() const { return corrupt_ != DecodeStatus::kOk; }

 private:
  DecodeStatus NextSlow(sim::Message* out);

  /// buffer_[pos_, end_) holds the undecoded bytes; the rest of buffer_ is
  /// room for Reserve. The consumed prefix is reclaimed when it grows past
  /// the live bytes, so the footprint stays bounded by the burst size.
  std::vector<uint8_t> buffer_;
  size_t pos_ = 0;
  size_t end_ = 0;
  DecodeStatus corrupt_ = DecodeStatus::kOk;
};

}  // namespace nmc::runtime::wire
