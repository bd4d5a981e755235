// The wire contract's pin: frame layout byte for byte, decode validation
// order, and the incremental reassembler's behavior on arbitrary chunk
// boundaries and on garbage. If any of these tests changes meaning, that
// is a wire-format change and kVersion must bump with it.

#include "runtime/wire.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "sim/message.h"
#include "sim/message_wire.h"

namespace nmc::runtime::wire {
namespace {

sim::Message TestMessage() {
  sim::Message message;
  message.type = 2;
  message.a = -0.0;  // signed zero must survive bit for bit
  message.b = 1.5;
  message.u = 0x0123456789ABCDEF;
  message.v = -2;
  return message;
}

TEST(WireTest, GoldenFrameLayout) {
  const sim::Message message = TestMessage();
  uint8_t frame[kFrameBytes];
  EncodeFrame(message, frame);

  // Header: magic "NCM1" little-endian, version 1, length 36.
  EXPECT_EQ(frame[0], 'N');
  EXPECT_EQ(frame[1], 'C');
  EXPECT_EQ(frame[2], 'M');
  EXPECT_EQ(frame[3], '1');
  EXPECT_EQ(frame[4], 1);
  EXPECT_EQ(frame[5], 0);
  EXPECT_EQ(frame[6], 36);
  EXPECT_EQ(frame[7], 0);

  // Payload: type at 8, a at 12, b at 20, u at 28, v at 36 — the
  // PackMessage image verbatim.
  EXPECT_EQ(frame[8], 2);
  EXPECT_EQ(frame[9], 0);
  EXPECT_EQ(frame[10], 0);
  EXPECT_EQ(frame[11], 0);
  // -0.0 is the sign bit alone: 63 zero bits then 0x80 in the top byte.
  for (int i = 0; i < 7; ++i) EXPECT_EQ(frame[12 + i], 0);
  EXPECT_EQ(frame[19], 0x80);
  // 1.5 = 0x3FF8000000000000.
  EXPECT_EQ(frame[26], 0xF8);
  EXPECT_EQ(frame[27], 0x3F);
  // u little-endian: low byte first.
  EXPECT_EQ(frame[28], 0xEF);
  EXPECT_EQ(frame[35], 0x01);
  // v = -2 two's complement.
  EXPECT_EQ(frame[36], 0xFE);
  for (int i = 37; i < 44; ++i) EXPECT_EQ(frame[i], 0xFF);
}

TEST(WireTest, RoundTripPreservesEveryBit) {
  sim::Message message = TestMessage();
  message.a = std::numeric_limits<double>::quiet_NaN();
  message.b = -std::numeric_limits<double>::infinity();
  uint8_t frame[kFrameBytes];
  EncodeFrame(message, frame);
  const Decoded decoded =
      DecodeFrame(std::span<const uint8_t>(frame, kFrameBytes));
  ASSERT_EQ(decoded.status, DecodeStatus::kOk);
  EXPECT_EQ(decoded.consumed, kFrameBytes);
  EXPECT_TRUE(sim::MessageBitsEqual(decoded.message, message));
  EXPECT_TRUE(std::isnan(decoded.message.a));
}

TEST(WireTest, TruncationAtEveryLengthNeedsMore) {
  uint8_t frame[kFrameBytes];
  EncodeFrame(TestMessage(), frame);
  for (size_t len = 0; len < kFrameBytes; ++len) {
    const Decoded decoded = DecodeFrame(std::span<const uint8_t>(frame, len));
    EXPECT_EQ(decoded.status, DecodeStatus::kNeedMore) << "len=" << len;
    EXPECT_EQ(decoded.consumed, 0u) << "len=" << len;
  }
}

TEST(WireTest, BadMagicVersionLengthRejectedInOrder) {
  uint8_t frame[kFrameBytes];
  EncodeFrame(TestMessage(), frame);

  uint8_t bad[kFrameBytes];
  std::copy(frame, frame + kFrameBytes, bad);
  bad[0] ^= 0xFF;
  EXPECT_EQ(DecodeFrame(std::span<const uint8_t>(bad, kFrameBytes)).status,
            DecodeStatus::kBadMagic);

  std::copy(frame, frame + kFrameBytes, bad);
  bad[4] = 99;
  EXPECT_EQ(DecodeFrame(std::span<const uint8_t>(bad, kFrameBytes)).status,
            DecodeStatus::kBadVersion);
  // Validation order: a wrong version is reported even when the frame is
  // truncated past the header.
  EXPECT_EQ(DecodeFrame(std::span<const uint8_t>(bad, kHeaderBytes)).status,
            DecodeStatus::kBadVersion);

  std::copy(frame, frame + kFrameBytes, bad);
  bad[6] = 35;
  EXPECT_EQ(DecodeFrame(std::span<const uint8_t>(bad, kFrameBytes)).status,
            DecodeStatus::kBadLength);

  // Nothing malformed is ever silently skipped.
  std::copy(frame, frame + kFrameBytes, bad);
  bad[1] ^= 0x01;
  const Decoded decoded = DecodeFrame(std::span<const uint8_t>(bad, 4));
  EXPECT_EQ(decoded.status, DecodeStatus::kBadMagic);
  EXPECT_EQ(decoded.consumed, 0u);
}

TEST(WireTest, ReassemblerHandlesArbitraryChunkBoundaries) {
  std::vector<uint8_t> stream;
  std::vector<sim::Message> sent;
  for (int i = 0; i < 17; ++i) {
    sim::Message message = TestMessage();
    message.u = i;
    message.a = static_cast<double>(i) * 0.5 - 3.0;
    sent.push_back(message);
    AppendFrame(message, &stream);
  }

  // Byte-by-byte is the worst chunking a socket can produce.
  FrameReassembler reassembler;
  std::vector<sim::Message> got;
  sim::Message out;
  for (const uint8_t byte : stream) {
    reassembler.Feed(std::span<const uint8_t>(&byte, 1));
    while (reassembler.Next(&out) == DecodeStatus::kOk) got.push_back(out);
  }
  ASSERT_EQ(got.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_TRUE(sim::MessageBitsEqual(got[i], sent[i])) << "i=" << i;
  }
  EXPECT_FALSE(reassembler.corrupt());
  EXPECT_EQ(reassembler.buffered_bytes(), 0u);

  // Odd-sized chunks that never align with frame boundaries.
  FrameReassembler chunked;
  got.clear();
  for (size_t pos = 0; pos < stream.size();) {
    const size_t len = std::min<size_t>(13, stream.size() - pos);
    chunked.Feed(std::span<const uint8_t>(stream.data() + pos, len));
    pos += len;
    while (chunked.Next(&out) == DecodeStatus::kOk) got.push_back(out);
  }
  EXPECT_EQ(got.size(), sent.size());
}

TEST(WireTest, ReassemblerCorruptionIsSticky) {
  FrameReassembler reassembler;
  std::vector<uint8_t> stream;
  AppendFrame(TestMessage(), &stream);
  stream.push_back('X');  // not 'N': desynchronizes after the good frame
  stream.push_back('X');
  reassembler.Feed(stream);

  sim::Message out;
  ASSERT_EQ(reassembler.Next(&out), DecodeStatus::kOk);
  // Even a short stray prefix is rejected the moment it is inconsistent
  // with the magic — garbage never sits in kNeedMore.
  EXPECT_EQ(reassembler.Next(&out), DecodeStatus::kBadMagic);
  EXPECT_TRUE(reassembler.corrupt());

  // Sticky: even a valid frame fed afterwards cannot resynchronize.
  std::vector<uint8_t> good;
  AppendFrame(TestMessage(), &good);
  reassembler.Feed(good);
  EXPECT_EQ(reassembler.Next(&out), DecodeStatus::kBadMagic);
  EXPECT_TRUE(reassembler.corrupt());
}

// Reference codec: the byte-at-a-time shifts the word-wide codec
// replaced. Slow and obviously little-endian, so it is the oracle.
void RefPutLe(uint64_t word, int bytes, uint8_t* out) {
  for (int i = 0; i < bytes; ++i) {
    out[i] = static_cast<uint8_t>((word >> (8 * i)) & 0xFFu);
  }
}

uint64_t RefGetLe(const uint8_t* in, int bytes) {
  uint64_t word = 0;
  for (int i = 0; i < bytes; ++i) {
    word |= static_cast<uint64_t>(in[i]) << (8 * i);
  }
  return word;
}

void RefPack(const sim::Message& message, uint8_t* out) {
  RefPutLe(static_cast<uint32_t>(message.type), 4, out);
  RefPutLe(std::bit_cast<uint64_t>(message.a), 8, out + 4);
  RefPutLe(std::bit_cast<uint64_t>(message.b), 8, out + 12);
  RefPutLe(static_cast<uint64_t>(message.u), 8, out + 20);
  RefPutLe(static_cast<uint64_t>(message.v), 8, out + 28);
}

sim::Message RefUnpack(const uint8_t* in) {
  sim::Message message;
  message.type = static_cast<int32_t>(static_cast<uint32_t>(RefGetLe(in, 4)));
  message.a = std::bit_cast<double>(RefGetLe(in + 4, 8));
  message.b = std::bit_cast<double>(RefGetLe(in + 12, 8));
  message.u = static_cast<int64_t>(RefGetLe(in + 20, 8));
  message.v = static_cast<int64_t>(RefGetLe(in + 28, 8));
  return message;
}

// Seeded random messages, with the edge values mixed into every field:
// NaNs with payloads and either sign, signed zeros, infinities, the int64
// extremes and negative types.
std::vector<sim::Message> OracleMessages(int count, uint64_t seed) {
  const std::array<double, 7> special_doubles = {
      std::bit_cast<double>(uint64_t{0x7FF8000000000001}),  // qNaN, payload
      std::bit_cast<double>(uint64_t{0xFFF4000000C0FFEE}),  // -sNaN, payload
      std::numeric_limits<double>::quiet_NaN(),
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  const std::array<int64_t, 4> special_ints = {
      std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max(),
      -1, 0};
  const std::array<int, 3> special_types = {
      -1, std::numeric_limits<int>::min(), std::numeric_limits<int>::max()};
  std::mt19937_64 rng(seed);
  const auto pick = [&](const auto& table) {
    return table[static_cast<size_t>(rng() % table.size())];
  };
  std::vector<sim::Message> messages(static_cast<size_t>(count));
  for (sim::Message& m : messages) {
    // One draw in four takes each field from its edge-value table.
    m.type = rng() % 4 == 0
                 ? pick(special_types)
                 : static_cast<int32_t>(static_cast<uint32_t>(rng()));
    m.a = rng() % 4 == 0 ? pick(special_doubles) : std::bit_cast<double>(rng());
    m.b = rng() % 4 == 0 ? pick(special_doubles) : std::bit_cast<double>(rng());
    m.u = rng() % 4 == 0 ? pick(special_ints) : static_cast<int64_t>(rng());
    m.v = rng() % 4 == 0 ? pick(special_ints) : static_cast<int64_t>(rng());
  }
  return messages;
}

TEST(WireTest, WordCodecMatchesByteLoopOracle) {
  const std::vector<sim::Message> messages = OracleMessages(10000, 20240611);
  std::vector<uint8_t> stream;
  for (const sim::Message& m : messages) {
    uint8_t got[sim::kMessageWireBytes];
    uint8_t want[sim::kMessageWireBytes];
    sim::PackMessage(m, got);
    RefPack(m, want);
    ASSERT_EQ(std::memcmp(got, want, sizeof(got)), 0);
    ASSERT_TRUE(sim::MessageBitsEqual(sim::UnpackMessage(want), m));
    ASSERT_TRUE(sim::MessageBitsEqual(RefUnpack(got), m));

    uint8_t frame[kFrameBytes];
    EncodeFrame(m, frame);
    ASSERT_EQ(RefGetLe(frame, 4), kMagic);
    ASSERT_EQ(RefGetLe(frame + 4, 2), kVersion);
    ASSERT_EQ(RefGetLe(frame + 6, 2), sim::kMessageWireBytes);
    ASSERT_EQ(std::memcmp(frame + kHeaderBytes, want, sizeof(want)), 0);
    stream.insert(stream.end(), frame, frame + kFrameBytes);
  }

  FrameReassembler reassembler;
  reassembler.Feed(stream);
  sim::Message out;
  for (const sim::Message& m : messages) {
    ASSERT_EQ(reassembler.Next(&out), DecodeStatus::kOk);
    ASSERT_TRUE(sim::MessageBitsEqual(out, m));
  }
  EXPECT_EQ(reassembler.Next(&out), DecodeStatus::kNeedMore);
}

// Next's inline whole-frame path must be invisible: for every value of
// every header byte and every truncation length, behind a good frame (so
// the read position is not 0), Next returns exactly what DecodeFrame does,
// and any error stays sticky.
TEST(WireTest, InlineNextMatchesDecodeFrameOnEveryHeaderCorruption) {
  uint8_t good[kFrameBytes];
  EncodeFrame(TestMessage(), good);
  for (size_t byte = 0; byte < kHeaderBytes; ++byte) {
    for (int flip = 0; flip < 256; ++flip) {
      uint8_t bad[kFrameBytes];
      std::copy(good, good + kFrameBytes, bad);
      bad[byte] = static_cast<uint8_t>(bad[byte] ^ flip);
      for (size_t len = 0; len <= kFrameBytes; ++len) {
        const Decoded want = DecodeFrame(std::span<const uint8_t>(bad, len));
        FrameReassembler reassembler;
        reassembler.Feed(std::span<const uint8_t>(good, kFrameBytes));
        reassembler.Feed(std::span<const uint8_t>(bad, len));
        sim::Message out;
        ASSERT_EQ(reassembler.Next(&out), DecodeStatus::kOk);
        ASSERT_EQ(reassembler.Next(&out), want.status)
            << "byte=" << byte << " flip=" << flip << " len=" << len;
        if (want.status == DecodeStatus::kOk) {
          ASSERT_TRUE(sim::MessageBitsEqual(out, want.message));
          continue;
        }
        if (want.status == DecodeStatus::kNeedMore) {
          ASSERT_FALSE(reassembler.corrupt());
          ASSERT_EQ(reassembler.buffered_bytes(), len);
          continue;
        }
        ASSERT_TRUE(reassembler.corrupt());
        reassembler.Feed(std::span<const uint8_t>(good, kFrameBytes));
        ASSERT_EQ(reassembler.Next(&out), want.status) << "not sticky";
      }
    }
  }
}

// Reserve/Commit (a recv straight into the reassembler) and Feed are the
// same stream: 10k seeded frames cut at random boundaries, drained at
// random points, decode bit-identically both ways.
void CheckReserveCommitMatchesFeed(uint64_t seed) {
  const std::vector<sim::Message> messages = OracleMessages(10000, seed);
  std::vector<uint8_t> stream;
  for (const sim::Message& m : messages) AppendFrame(m, &stream);

  std::mt19937_64 rng(seed ^ 0x5EEDu);
  FrameReassembler fed;
  FrameReassembler reserved;
  std::vector<sim::Message> from_feed;
  std::vector<sim::Message> from_reserve;
  const auto drain = [](FrameReassembler* r, std::vector<sim::Message>* got) {
    sim::Message out;
    while (r->Next(&out) == DecodeStatus::kOk) got->push_back(out);
  };
  for (size_t pos = 0; pos < stream.size();) {
    const size_t len =
        std::min<size_t>(rng() % (3 * kFrameBytes), stream.size() - pos);
    fed.Feed(std::span<const uint8_t>(stream.data() + pos, len));
    // Reserve more than arrives, as a recv of a short read does.
    uint8_t* room = reserved.Reserve(len + rng() % 64);
    std::memcpy(room, stream.data() + pos, len);
    reserved.Commit(len);
    pos += len;
    if (rng() % 4 == 0) {
      drain(&fed, &from_feed);
      drain(&reserved, &from_reserve);
    }
  }
  drain(&fed, &from_feed);
  drain(&reserved, &from_reserve);

  ASSERT_EQ(from_feed.size(), messages.size());
  ASSERT_EQ(from_reserve.size(), messages.size());
  for (size_t i = 0; i < messages.size(); ++i) {
    ASSERT_TRUE(sim::MessageBitsEqual(from_feed[i], messages[i])) << i;
    ASSERT_TRUE(sim::MessageBitsEqual(from_reserve[i], messages[i])) << i;
  }
  EXPECT_FALSE(reserved.corrupt());
  EXPECT_EQ(reserved.buffered_bytes(), 0u);
}

TEST(WireTest, ReserveCommitMatchesFeedAtRandomChunkBoundaries) {
  CheckReserveCommitMatchesFeed(20261017);
}

TEST(WireTest, DecodeStatusNamesAreStable) {
  EXPECT_STREQ(DecodeStatusName(DecodeStatus::kOk), "ok");
  EXPECT_STREQ(DecodeStatusName(DecodeStatus::kNeedMore), "need-more");
  EXPECT_STREQ(DecodeStatusName(DecodeStatus::kBadMagic), "bad-magic");
  EXPECT_STREQ(DecodeStatusName(DecodeStatus::kBadVersion), "bad-version");
  EXPECT_STREQ(DecodeStatusName(DecodeStatus::kBadLength), "bad-length");
}

}  // namespace
}  // namespace nmc::runtime::wire
