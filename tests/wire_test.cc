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
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/batch_ops_kernels.h"
#include "common/simd_dispatch.h"
#include "runtime/threaded.h"
#include "sim/message.h"
#include "sim/message_wire.h"
#include "streams/bernoulli.h"

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

  // Header: magic "NCM1" little-endian, version 2, length 36.
  EXPECT_EQ(frame[0], 'N');
  EXPECT_EQ(frame[1], 'C');
  EXPECT_EQ(frame[2], 'M');
  EXPECT_EQ(frame[3], '1');
  EXPECT_EQ(frame[4], 2);
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

// ---- The run codec --------------------------------------------------------

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// Per-update oracle of where a run frame ends: walks the updates one at a
// time from `start`, keeping the distinct bit patterns seen, and stops
// before a third one, at kMaxRunUpdates updates, or at `stop`.
int64_t RefRunEnd(const std::vector<double>& values, int64_t start,
                  int64_t stop) {
  std::vector<uint64_t> distinct;
  int64_t end = start;
  while (end < stop && end - start < kMaxRunUpdates) {
    const uint64_t bits = Bits(values[static_cast<size_t>(end)]);
    if (std::find(distinct.begin(), distinct.end(), bits) == distinct.end()) {
      if (distinct.size() == 2) break;
      distinct.push_back(bits);
    }
    ++end;
  }
  return end;
}

// The branchy packer the branch-free PackRun replaced, kept as the oracle
// of the frame image: it walks the window one update at a time, takes the
// first value that is not a as b, and stops before a third value.
sim::Message RefPackRun(std::span<const double> values, int64_t first_seq) {
  const size_t limit =
      std::min(values.size(), static_cast<size_t>(kMaxRunUpdates));
  const uint64_t a = Bits(values[0]);
  uint64_t b = 0;
  bool have_b = false;
  uint64_t selectors = 0;
  size_t count = 1;
  for (; count < limit; ++count) {
    const uint64_t bits = Bits(values[count]);
    if (bits == a) continue;
    if (!have_b) {
      b = bits;
      have_b = true;
    } else if (bits != b) {
      break;
    }
    selectors |= uint64_t{1} << count;
  }
  sim::Message m;
  m.type = 2;
  m.a = std::bit_cast<double>(a);
  m.b = std::bit_cast<double>(b);
  m.u = first_seq;
  m.v = static_cast<int64_t>(selectors | (uint64_t{1} << count));
  return m;
}

std::vector<uint8_t> FrameImage(const sim::Message& message) {
  std::vector<uint8_t> frame(kFrameBytes);
  EncodeFrame(message, frame.data());
  return frame;
}

// Random sequences over small alphabets of edge values and random doubles:
// the alphabet size decides how often a third value ends a run.
std::vector<double> RunSequence(size_t length, uint64_t seed) {
  const std::array<double, 10> edges = {
      std::bit_cast<double>(uint64_t{0x7FF8000000000001}),  // qNaN, payload
      std::bit_cast<double>(uint64_t{0x7FF8000000000002}),  // another payload
      std::bit_cast<double>(uint64_t{0xFFF4000000C0FFEE}),  // -sNaN, payload
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      1.0,
      -1.0,
      0.5};
  std::mt19937_64 rng(seed);
  const size_t alphabet = 1 + rng() % 4;
  std::vector<double> letters(alphabet);
  for (double& letter : letters) {
    letter = rng() % 2 == 0 ? edges[rng() % edges.size()]
                            : std::bit_cast<double>(rng());
  }
  std::vector<double> values(length);
  for (double& value : values) value = letters[rng() % alphabet];
  return values;
}

// Packs `values` from `start` to `stop` greedily into framed runs, checks
// each frame's extent against the oracle and its bytes against
// RefPackRun's frame (b is 0.0 while unused, no selector bit at or above
// the stop bit), and expands the frames back through the reassembler; the
// round trip must be bit-exact.
void CheckRunCodec(const std::vector<double>& values, int64_t start,
                   int64_t stop) {
  std::vector<uint8_t> stream;
  std::vector<int64_t> ends;
  for (int64_t seq = start; seq < stop;) {
    const std::span<const double> window =
        std::span<const double>(values).subspan(
            static_cast<size_t>(seq), static_cast<size_t>(stop - seq));
    sim::Message m;
    m.type = 2;
    const int count = PackRun(window, seq, &m);
    ASSERT_EQ(seq + count, RefRunEnd(values, seq, stop)) << "seq=" << seq;
    ASSERT_EQ(FrameImage(m), FrameImage(RefPackRun(window, seq)))
        << "seq=" << seq;
    ASSERT_EQ(RunLength(m), count);
    ASSERT_EQ(m.u, seq);
    ASSERT_EQ(Bits(m.a), Bits(values[static_cast<size_t>(seq)]));
    AppendFrame(m, &stream);
    seq += count;
    ends.push_back(seq);
  }
  FrameReassembler reassembler;
  reassembler.Feed(stream);
  sim::Message m;
  int64_t seq = start;
  for (const int64_t end : ends) {
    ASSERT_EQ(reassembler.Next(&m), DecodeStatus::kOk);
    ASSERT_EQ(m.u, seq);
    double expanded[kMaxRunUpdates];
    ASSERT_EQ(ExpandRun(m, expanded), end - seq);
    for (int64_t i = seq; i < end; ++i) {
      ASSERT_EQ(Bits(expanded[i - seq]), Bits(values[static_cast<size_t>(i)]))
          << "update " << i;
    }
    seq = end;
  }
  EXPECT_EQ(seq, stop);
  EXPECT_EQ(reassembler.Next(&m), DecodeStatus::kNeedMore);
}

TEST(WireTest, RunCodecMatchesPerUpdateOracle) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    const std::vector<double> values = RunSequence(1 + seed * 7 % 500, seed);
    const int64_t n = static_cast<int64_t>(values.size());
    // The whole sequence, then one incarnation between two stop points.
    CheckRunCodec(values, 0, n);
    const int64_t start = static_cast<int64_t>(seed * 13) % n;
    CheckRunCodec(values, start, start + (n - start) / 2);
  }
}

TEST(WireTest, RunCodecMatchesOracleOnBernoulliShard) {
  // The ±1 shard a sockets site streams: two values, so every frame but a
  // shard's last carries kMaxRunUpdates updates.
  for (const double mu : {0.0, 0.02}) {
    const std::vector<double> shard =
        ShardRoundRobin(streams::BernoulliStream(int64_t{1} << 14, mu, 5),
                        2)[0];
    const int64_t n = static_cast<int64_t>(shard.size());
    CheckRunCodec(shard, 0, n);
    CheckRunCodec(shard, 1000, n - 17);
  }
}

TEST(WireTest, ExpandRunWritesNothingPastItsCount) {
  // The coordinator expands in-order frames into the middle of its run
  // buffer, so out[count] and beyond must survive every count, at every
  // SIMD level the dispatched kernel can take; the scalar loop is the
  // oracle.
  const double sentinel = std::bit_cast<double>(uint64_t{0x7FF800000000BEEF});
  const std::vector<double> values =
      streams::BernoulliStream(kMaxRunUpdates, 0.0, 31);
  for (const common::SimdLevel level :
       {common::SimdLevel::kScalar, common::SimdLevel::kAvx2}) {
    if (!common::ForceSimdLevel(level)) continue;
    SCOPED_TRACE(common::SimdLevelName(level));
    for (int count = 1; count <= kMaxRunUpdates; ++count) {
      sim::Message m;
      ASSERT_EQ(PackRun(std::span<const double>(values).first(
                            static_cast<size_t>(count)),
                        0, &m),
                count);
      std::array<double, kMaxRunUpdates + 1> out;
      out.fill(sentinel);
      std::array<double, kMaxRunUpdates + 1> oracle = out;
      ASSERT_EQ(ExpandRun(m, out.data()), count);
      ASSERT_EQ(ExpandRun(m, oracle.data(),
                          common::batch_ops_detail::ExpandSelectorsScalar),
                count);
      for (int i = 0; i < count; ++i) {
        ASSERT_EQ(Bits(out[static_cast<size_t>(i)]),
                  Bits(values[static_cast<size_t>(i)]))
            << "count=" << count << " update " << i;
      }
      for (size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(Bits(out[i]), Bits(oracle[i])) << "count=" << count;
        if (i >= static_cast<size_t>(count)) {
          ASSERT_EQ(Bits(out[i]), Bits(sentinel)) << "count=" << count;
        }
      }
    }
  }
  common::ResetSimdLevel();
}

TEST(WireTest, RunEndsAtThirdValueAtCapAndAtStop) {
  // A third distinct value ends the run before it.
  const std::vector<double> three = {1.0, -1.0, 1.0, 2.0, 1.0};
  sim::Message m;
  EXPECT_EQ(PackRun(three, 7, &m), 3);
  EXPECT_EQ(m.a, 1.0);
  EXPECT_EQ(m.b, -1.0);
  EXPECT_EQ(m.u, 7);
  EXPECT_EQ(m.v, 0b1010);  // update 1 is b; the stop bit sits above update 2

  // Two values never end it before 63 updates.
  std::vector<double> long_run(100);
  for (size_t i = 0; i < long_run.size(); ++i) {
    long_run[i] = i % 3 == 0 ? 1.0 : -1.0;
  }
  EXPECT_EQ(PackRun(long_run, 0, &m), kMaxRunUpdates);
  EXPECT_EQ(static_cast<uint64_t>(m.v) >> 63, 1u);  // all 64 bits in use
  EXPECT_EQ(RunLength(m), kMaxRunUpdates);

  // A stop point is the end of the span handed in.
  EXPECT_EQ(PackRun(std::span<const double>(long_run).first(5), 0, &m), 5);
  EXPECT_EQ(RunLength(m), 5);

  // One value alone: b stays 0.0 and no selector bit is set.
  const std::vector<double> same(10, -1.0);
  EXPECT_EQ(PackRun(same, 0, &m), 10);
  EXPECT_EQ(Bits(m.b), 0u);
  EXPECT_EQ(m.v, int64_t{1} << 10);
}

TEST(WireTest, RunCodecKeepsSignedZerosInfinitiesAndNanPayloads) {
  // ±0 compare equal as doubles but are two values on the wire.
  const std::vector<double> zeros = {0.0, -0.0, -0.0, 0.0};
  sim::Message m;
  ASSERT_EQ(PackRun(zeros, 0, &m), 4);
  double out[kMaxRunUpdates];
  ASSERT_EQ(ExpandRun(m, out), 4);
  for (size_t i = 0; i < zeros.size(); ++i) {
    EXPECT_EQ(Bits(out[i]), Bits(zeros[i]));
  }

  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> infinities = {inf, -inf, inf};
  ASSERT_EQ(PackRun(infinities, 0, &m), 3);
  ASSERT_EQ(ExpandRun(m, out), 3);
  for (size_t i = 0; i < infinities.size(); ++i) {
    EXPECT_EQ(Bits(out[i]), Bits(infinities[i]));
  }

  // Two NaNs that differ only in payload are two values, and a third
  // payload ends the run.
  const std::vector<double> nans = {
      std::bit_cast<double>(uint64_t{0x7FF8000000000001}),
      std::bit_cast<double>(uint64_t{0x7FF8000000000002}),
      std::bit_cast<double>(uint64_t{0x7FF8000000000001}),
      std::bit_cast<double>(uint64_t{0x7FF8000000000003})};
  ASSERT_EQ(PackRun(nans, 0, &m), 3);
  ASSERT_EQ(ExpandRun(m, out), 3);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(Bits(out[i]), Bits(nans[i]));
}

TEST(WireTest, FrameWithoutUpdatesHasCountBelowOne) {
  sim::Message m;
  double out[kMaxRunUpdates] = {};
  out[0] = 42.0;
  m.a = 7.0;
  m.v = 0;  // no stop bit
  EXPECT_LT(RunLength(m), 1);
  EXPECT_LT(ExpandRun(m, out), 1);
  m.v = 1;  // a stop bit with no update below it
  EXPECT_EQ(RunLength(m), 0);
  EXPECT_EQ(ExpandRun(m, out), 0);
  EXPECT_EQ(out[0], 42.0) << "nothing is written for a malformed frame";
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
