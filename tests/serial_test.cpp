// Tests for defensive serialization (ByteWriter/ByteReader) and field
// element I/O.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/serial.h"
#include "gf/field_io.h"
#include "gf/gf2.h"
#include "rng/chacha.h"

namespace dprbg {
namespace {

TEST(SerialTest, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xCDEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xCDEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.done());
}

TEST(SerialTest, RoundTripU64Vector) {
  ByteWriter w;
  const std::vector<std::uint64_t> v = {1, 2, 3, 0xFFFFFFFFFFFFFFFFull};
  w.u64_vec(v);
  ByteReader r(w.data());
  EXPECT_EQ(r.u64_vec(), v);
  EXPECT_TRUE(r.done());
}

TEST(SerialTest, EmptyVectorRoundTrip) {
  ByteWriter w;
  w.u64_vec({});
  ByteReader r(w.data());
  EXPECT_TRUE(r.u64_vec().empty());
  EXPECT_TRUE(r.done());
}

TEST(SerialTest, TruncatedInputFailsGracefully) {
  ByteWriter w;
  w.u64(42);
  auto bytes = w.data();
  bytes.pop_back();
  ByteReader r(bytes);
  EXPECT_EQ(r.u64(), 0u);  // failed read returns zero
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.done());
}

TEST(SerialTest, OversizedVectorLengthRejected) {
  // A Byzantine sender claims a 2^31-element vector in a 10-byte message.
  ByteWriter w;
  w.u32(0x80000000u);
  w.u32(0);
  ByteReader r(w.data());
  EXPECT_TRUE(r.u64_vec().empty());
  EXPECT_FALSE(r.ok());
}

TEST(SerialTest, ReadPastEndStaysFailed) {
  ByteReader r(std::span<const std::uint8_t>{});
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_EQ(r.u64(), 0u);  // still zero, no UB
  EXPECT_FALSE(r.ok());
}

TEST(SerialTest, DoneDetectsTrailingGarbage) {
  ByteWriter w;
  w.u32(7);
  w.u8(99);  // trailing byte the decoder does not expect
  ByteReader r(w.data());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.done());
}

template <typename F>
class FieldIoTest : public ::testing::Test {};

using FieldTypes = ::testing::Types<GF2_8, GF2_16, GF2_32, GF2<40>, GF2_64>;
TYPED_TEST_SUITE(FieldIoTest, FieldTypes);

TYPED_TEST(FieldIoTest, ElementRoundTrip) {
  Chacha rng(1);
  for (int i = 0; i < 100; ++i) {
    const auto e = random_element<TypeParam>(rng);
    ByteWriter w;
    write_elem(w, e);
    EXPECT_EQ(w.size(), TypeParam::kBytes);
    ByteReader r(w.data());
    EXPECT_EQ(read_elem<TypeParam>(r), e);
    EXPECT_TRUE(r.done());
  }
}

TYPED_TEST(FieldIoTest, WireSizeMatchesSecurityParameter) {
  // A k-bit share costs ceil(k/8) bytes on the wire, matching the paper's
  // "messages of size k" accounting.
  EXPECT_EQ(TypeParam::kBytes, (TypeParam::kBits + 7) / 8);
}

TEST(FieldIoTest, TruncatedElementFails) {
  ByteWriter w;
  write_elem(w, GF2_64::from_uint(12345));
  auto bytes = w.data();
  bytes.resize(4);
  ByteReader r(bytes);
  (void)read_elem<GF2_64>(r);
  EXPECT_FALSE(r.ok());
}

// The bulk row codecs against the per-element ones, for every width the
// tree uses plus GF2<4> (masked high bits), GF2<24> and GF2<40>
// (kBytes 3 and 5, not a machine word).
template <typename F>
class RowCodecTest : public ::testing::Test {};

using RowCodecTypes = ::testing::Types<GF2<4>, GF2_8, GF2_16, GF2<24>,
                                       GF2_32, GF2<40>, GF2_64>;
TYPED_TEST_SUITE(RowCodecTest, RowCodecTypes);

TYPED_TEST(RowCodecTest, WriteRowMatchesElementLoop) {
  using F = TypeParam;
  Chacha rng(3);
  for (std::size_t len : {0u, 1u, 7u, 33u}) {
    std::vector<F> row;
    for (std::size_t i = 0; i < len; ++i) {
      row.push_back(random_element<F>(rng));
    }
    // A leading byte so the row starts at an unaligned offset.
    ByteWriter bulk, loop;
    bulk.u8(0x5A);
    loop.u8(0x5A);
    write_elem_row<F>(bulk, row);
    for (const F& e : row) write_elem(loop, e);
    EXPECT_EQ(bulk.data(), loop.data()) << "len " << len;
    EXPECT_EQ(bulk.size(), 1 + len * F::kBytes);
  }
}

TYPED_TEST(RowCodecTest, DecodeRowMatchesReadLoop) {
  using F = TypeParam;
  Chacha rng(4);
  for (std::size_t count : {1u, 5u, 64u}) {
    // Arbitrary bytes, so the top byte carries bits above kBits whenever
    // the width is not a whole number of bytes.
    std::vector<std::uint8_t> bytes(count * F::kBytes);
    rng.fill_bytes(bytes);
    const auto row = decode_elem_row<F>(bytes, count);
    ASSERT_TRUE(row.has_value());
    ASSERT_EQ(row->size(), count);
    ByteReader r(bytes);
    for (std::size_t i = 0; i < count; ++i) {
      const F e = read_elem<F>(r);
      EXPECT_EQ((*row)[i], e) << "elem " << i;
      EXPECT_EQ(e.to_uint() & ~F::kMask, 0u);
    }
    EXPECT_TRUE(r.done());
  }
}

TYPED_TEST(RowCodecTest, WrongLengthRowIsRejected) {
  using F = TypeParam;
  const std::size_t four = 4 * F::kBytes;
  const std::vector<std::uint8_t> bytes(four + 1, 0xFF);
  const std::span<const std::uint8_t> all(bytes);
  EXPECT_FALSE(decode_elem_row<F>(all, 4).has_value());
  EXPECT_FALSE(decode_elem_row<F>(all.first(four - 1), 4).has_value());
  EXPECT_FALSE(decode_elem_row<F>(all.first(four - F::kBytes), 4)
                   .has_value());
  EXPECT_FALSE(decode_elem_row<F>(all.first(0), 1).has_value());
  const auto empty = decode_elem_row<F>(all.first(0), 0);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TYPED_TEST(RowCodecTest, TruncatedReadFailsAndReturnsZero) {
  using F = TypeParam;
  const std::vector<std::uint8_t> bytes(F::kBytes, 0xFF);
  for (std::size_t have = 0; have < F::kBytes; ++have) {
    ByteReader r(std::span<const std::uint8_t>(bytes).first(have));
    EXPECT_TRUE(read_elem<F>(r).is_zero()) << "have " << have;
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(read_elem<F>(r).is_zero());  // stays failed
    EXPECT_FALSE(r.ok());
  }
}

}  // namespace
}  // namespace dprbg
