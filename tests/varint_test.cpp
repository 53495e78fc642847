// Round-trip + adversarial property suite for the canonical varint
// codec (common/varint.h) and its ByteWriter/ByteReader integration.

#include "common/varint.h"

#include <cstdint>
#include <span>
#include <vector>

#include "common/serial.h"
#include "gtest/gtest.h"

namespace dprbg {
namespace {

// Independent reference encoder: builds the 7-bit groups explicitly,
// low-to-high, continuation bit on every group but the last. Kept
// deliberately different in structure from append_varint so the
// differential test is not comparing an implementation against itself.
std::vector<std::uint8_t> reference_encode(std::uint64_t v) {
  std::vector<std::uint8_t> groups;
  do {
    groups.push_back(static_cast<std::uint8_t>(v & 0x7Fu));
    v >>= 7;
  } while (v != 0);
  for (std::size_t i = 0; i + 1 < groups.size(); ++i) groups[i] |= 0x80u;
  return groups;
}

// Boundary values around every 7-bit group edge, plus the 64-bit edges.
std::vector<std::uint64_t> boundary_values() {
  std::vector<std::uint64_t> vals{0, 1, 2, 63, 64};
  for (unsigned shift = 7; shift <= 63; shift += 7) {
    const std::uint64_t edge = 1ull << shift;
    vals.push_back(edge - 2);
    vals.push_back(edge - 1);
    vals.push_back(edge);
    vals.push_back(edge + 1);
  }
  vals.push_back((1ull << 32) - 1);
  vals.push_back(1ull << 32);
  vals.push_back(~0ull - 1);
  vals.push_back(~0ull);
  return vals;
}

TEST(VarintTest, DifferentialAgainstReferenceEncoder) {
  for (const std::uint64_t v : boundary_values()) {
    std::vector<std::uint8_t> enc;
    append_varint(enc, v);
    EXPECT_EQ(enc, reference_encode(v)) << "value " << v;
    EXPECT_EQ(enc.size(), varint_size(v)) << "value " << v;
  }
  // Dense sweep over the first two group boundaries.
  for (std::uint64_t v = 0; v < (1u << 15); ++v) {
    std::vector<std::uint8_t> enc;
    append_varint(enc, v);
    ASSERT_EQ(enc, reference_encode(v)) << "value " << v;
  }
}

TEST(VarintTest, RoundTripAndExactSizes) {
  for (const std::uint64_t v : boundary_values()) {
    std::vector<std::uint8_t> enc;
    append_varint(enc, v);
    // Size grows one byte per 7 bits: 1..10.
    std::size_t expect_size = 1;
    for (std::uint64_t x = v; x >= 0x80; x >>= 7) ++expect_size;
    ASSERT_EQ(enc.size(), expect_size);
    ASSERT_LE(enc.size(), kMaxVarintBytes);
    const VarintDecode d = read_varint(enc);
    ASSERT_TRUE(d.ok) << "value " << v;
    EXPECT_EQ(d.value, v);
    EXPECT_EQ(d.bytes, enc.size());
  }
}

TEST(VarintTest, FiveByteBoundariesExhaustive) {
  // Every encoded length 1..5 has an exact value window; check both ends
  // of each window decode to the window edge and sizes match.
  for (unsigned len = 1; len <= 5; ++len) {
    const std::uint64_t lo = len == 1 ? 0 : 1ull << (7 * (len - 1));
    const std::uint64_t hi = (1ull << (7 * len)) - 1;
    for (const std::uint64_t v : {lo, lo + 1, hi - 1, hi}) {
      EXPECT_EQ(varint_size(v), len) << "value " << v;
      std::vector<std::uint8_t> enc;
      append_varint(enc, v);
      ASSERT_EQ(enc.size(), len);
      const VarintDecode d = read_varint(enc);
      ASSERT_TRUE(d.ok);
      EXPECT_EQ(d.value, v);
    }
  }
}

TEST(VarintTest, TruncationRejected) {
  for (const std::uint64_t v : boundary_values()) {
    std::vector<std::uint8_t> enc;
    append_varint(enc, v);
    // Every strict prefix must fail (the final byte clears the
    // continuation bit, so a prefix always ends mid-run).
    for (std::size_t cut = 0; cut < enc.size(); ++cut) {
      const std::span<const std::uint8_t> prefix(enc.data(), cut);
      EXPECT_FALSE(read_varint(prefix).ok)
          << "value " << v << " cut " << cut;
    }
  }
  EXPECT_FALSE(read_varint({}).ok);
}

TEST(VarintTest, OverlongEncodingsRejected) {
  // Append a redundant zero group to an otherwise valid encoding: the
  // value is unchanged but the spelling is non-minimal.
  for (const std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull,
                                (1ull << 21) - 1}) {
    std::vector<std::uint8_t> enc;
    append_varint(enc, v);
    if (enc.size() >= kMaxVarintBytes) continue;
    std::vector<std::uint8_t> overlong = enc;
    overlong.resize(enc.size() + 1);    // an empty group appended ...
    overlong[enc.size() - 1] |= 0x80u;  // ... after a continuation
    EXPECT_FALSE(read_varint(overlong).ok) << "value " << v;
  }
  // Classic two-byte zero.
  EXPECT_FALSE(read_varint(std::vector<std::uint8_t>{0x80, 0x00}).ok);
}

TEST(VarintTest, OverflowRejected) {
  // 10-byte encoding whose final group exceeds bit 63.
  std::vector<std::uint8_t> too_big(10, 0xFF);
  too_big.back() = 0x02;  // bit 64
  EXPECT_FALSE(read_varint(too_big).ok);
  // Exactly u64 max is fine: nine 0xFF then 0x01.
  std::vector<std::uint8_t> max(9, 0xFF);
  max.push_back(0x01);
  const VarintDecode d = read_varint(max);
  ASSERT_TRUE(d.ok);
  EXPECT_EQ(d.value, ~0ull);
  // An 11-byte continuation run can never terminate validly.
  std::vector<std::uint8_t> run(11, 0x80);
  EXPECT_FALSE(read_varint(run).ok);
}

TEST(VarintTest, TwoByteSpaceExhaustive) {
  // All 1- and 2-byte inputs: acceptance matches the canonical predicate
  // exactly. One byte: accepted iff the continuation bit is clear. Two
  // bytes: accepted (consuming 2) iff byte0 continues and byte1 is a
  // terminal nonzero group.
  for (unsigned b0 = 0; b0 < 256; ++b0) {
    const std::uint8_t byte0 = static_cast<std::uint8_t>(b0);
    const VarintDecode one = read_varint(std::vector<std::uint8_t>{byte0});
    EXPECT_EQ(one.ok, (b0 & 0x80u) == 0);
    if (one.ok) {
      EXPECT_EQ(one.value, b0 & 0x7Fu);
    }
    for (unsigned b1 = 0; b1 < 256; ++b1) {
      const std::vector<std::uint8_t> in{byte0,
                                         static_cast<std::uint8_t>(b1)};
      const VarintDecode d = read_varint(in);
      if ((b0 & 0x80u) == 0) {
        // Terminates at byte 0; the second byte is simply not consumed.
        ASSERT_TRUE(d.ok);
        EXPECT_EQ(d.bytes, 1u);
      } else if ((b1 & 0x80u) == 0 && (b1 & 0x7Fu) != 0) {
        ASSERT_TRUE(d.ok) << b0 << " " << b1;
        EXPECT_EQ(d.bytes, 2u);
        EXPECT_EQ(d.value,
                  static_cast<std::uint64_t>(b0 & 0x7Fu) |
                      (static_cast<std::uint64_t>(b1 & 0x7Fu) << 7));
      } else {
        EXPECT_FALSE(d.ok) << b0 << " " << b1;  // truncated or overlong
      }
    }
  }
}

TEST(VarintTest, ByteWriterReaderIntegration) {
  ByteWriter w;
  w.u8(0xAB);
  w.uvarint(0);
  w.uvarint(127);
  w.uvarint(300);
  w.uvarint(~0ull);
  w.u16(0xBEEF);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.uvarint(), 0u);
  EXPECT_EQ(r.uvarint(), 127u);
  EXPECT_EQ(r.uvarint(), 300u);
  EXPECT_EQ(r.uvarint(), ~0ull);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_TRUE(r.done());
}

TEST(VarintTest, ReaderFailsPermanentlyOnBadVarint) {
  const std::vector<std::uint8_t> bad{0x80, 0x00, 0x42};  // overlong + junk
  ByteReader r(bad);
  EXPECT_EQ(r.uvarint(), 0u);
  EXPECT_FALSE(r.ok());
  // Parked at the end: subsequent reads keep failing, done() stays false.
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_FALSE(r.done());
}

}  // namespace
}  // namespace dprbg
