// Golden tests: lock down deterministic outputs so refactors cannot
// silently change the wire format, field constants, or replayable
// randomness. If one of these fails, either a bug was introduced or the
// format deliberately changed — in the latter case update the constants
// AND bump a protocol version in the release notes.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "coin/coin_expose.h"
#include "coin/coin_gen.h"
#include "common/serial.h"
#include "dprbg/coin_pool.h"
#include "dprbg/trusted_dealer.h"
#include "gf/field_io.h"
#include "gf/gf2.h"
#include "net/cluster.h"
#include "net/msg.h"
#include "rng/chacha.h"
#include "sharing/shamir.h"

namespace dprbg {
namespace {

TEST(GoldenTest, TagLayout) {
  // tag = proto(8) | instance(12) | phase(8) | sub(4).
  EXPECT_EQ(make_tag(ProtoId::kVss, 0, 0, 0), 0x03000000u);
  EXPECT_EQ(make_tag(ProtoId::kBitGen, 1, 2, 3), 0x05001023u);
  EXPECT_EQ(make_tag(ProtoId::kCoinExpose, 4095, 255, 15), 0x02FFFFFFu);
  // Field overflow wraps into the mask, never into neighbours.
  EXPECT_EQ(make_tag(ProtoId::kVss, 4096, 0, 0),
            make_tag(ProtoId::kVss, 0, 0, 0));
}

TEST(GoldenTest, EnvelopeHeaderLayouts) {
  // The envelope framing is golden: version byte 0x10, then from /
  // rotated tag / batch / body_len as canonical varints.
  EnvelopeHeader h;
  h.from = 5;
  h.tag = make_tag(ProtoId::kVss, 1, 2, 3);  // 0x03001023
  h.batch = 300;
  h.body_len = 130;

  ByteWriter v1;
  encode_envelope_header(v1, h);
  const std::vector<std::uint8_t> expect_v1 = {
      0x10,              // version 1, flags 0
      0x05,              // from
      0x83, 0xC6, 0x40,  // wire_tag(tag) = 0x00102303, 3-byte varint
      0xAC, 0x02,        // batch = 300
      0x82, 0x01,        // body_len = 130
  };
  EXPECT_EQ(v1.data(), expect_v1);
  EXPECT_EQ(envelope_header_bytes(h), expect_v1.size());

  ByteReader r(v1.data());
  const auto back = decode_envelope_header(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->from, h.from);
  EXPECT_EQ(back->tag, h.tag);
  EXPECT_EQ(back->batch, h.batch);
  EXPECT_EQ(back->body_len, h.body_len);
}

TEST(GoldenTest, FieldElementWireFormat) {
  // Little-endian, exactly kBytes bytes.
  ByteWriter w;
  write_elem(w, GF2_64::from_uint(0x0102030405060708ull));
  const std::vector<std::uint8_t> expected = {0x08, 0x07, 0x06, 0x05,
                                              0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(w.data(), expected);

  ByteWriter w16;
  write_elem(w16, GF2_16::from_uint(0xABCD));
  EXPECT_EQ(w16.data(), (std::vector<std::uint8_t>{0xCD, 0xAB}));
}

TEST(GoldenTest, SerializedVectorLayout) {
  ByteWriter w;
  w.u64_vec(std::vector<std::uint64_t>{0x11, 0x22});
  const std::vector<std::uint8_t> expected = {
      2,    0, 0, 0,                    // u32 length
      0x11, 0, 0, 0, 0, 0, 0, 0,        // first element LE
      0x22, 0, 0, 0, 0, 0, 0, 0,        // second element LE
  };
  EXPECT_EQ(w.data(), expected);
}

TEST(GoldenTest, ChachaKnownStream) {
  // Replayability contract: these values must never change for a given
  // (seed, stream) or every recorded experiment changes under users'
  // feet. The offsets straddle the 16-word block and the 64-word refill
  // boundaries, so a refill that computes several blocks at once must
  // still lay them out in counter order.
  constexpr std::array<unsigned, 8> kOffsets = {0, 15, 16, 63, 64, 65,
                                                255, 256};
  struct Pin {
    std::uint64_t seed;
    std::uint64_t stream;
    std::array<std::uint32_t, 8> words;  // next_u32 at kOffsets
  };
  const std::array<Pin, 3> pins = {{
      {0,
       0,
       {0xb500341d, 0x9de9e7b9, 0x17a2eed2, 0x8779e109, 0x83e1d353,
        0x2de641ce, 0xd7006761, 0x059203ce}},
      {42,
       1,
       {0x6d74a8bb, 0x126db802, 0xecc0ac82, 0xc0b8e039, 0xe452844b,
        0x2674487d, 0x8eecb3b0, 0x418d680e}},
      {0xdeadbeef,
       0x1234567890,
       {0x61fcb6a6, 0xf8e06047, 0x9b2c1a52, 0xdf69a3d2, 0x38470299,
        0x39a29b5e, 0xf999a04a, 0x8ac48fc5}},
  }};
  for (const Pin& p : pins) {
    Chacha c(p.seed, p.stream);
    unsigned pos = 0;
    for (std::size_t k = 0; k < kOffsets.size(); ++k) {
      for (; pos < kOffsets[k]; ++pos) c.next_u32();
      EXPECT_EQ(c.next_u32(), p.words[k])
          << "seed " << p.seed << " stream " << p.stream << " offset "
          << kOffsets[k];
      ++pos;
    }
  }

  // A 37-byte fill starting 13 words into the stream: crosses the first
  // block boundary and ends on a partial word.
  Chacha f(42, 1);
  for (int i = 0; i < 13; ++i) f.next_u32();
  std::array<std::uint8_t, 37> tail{};
  f.fill_bytes(tail);
  const std::array<std::uint8_t, 37> expect_tail = {
      0x90, 0x36, 0x76, 0x12, 0xe1, 0xda, 0xee, 0xd5, 0x02, 0xb8,
      0x6d, 0x12, 0x82, 0xac, 0xc0, 0xec, 0x49, 0xc9, 0x6d, 0xdd,
      0x04, 0xac, 0xa1, 0xe5, 0xfd, 0x90, 0x2e, 0x96, 0xd1, 0x31,
      0x23, 0xb8, 0x3a, 0x8e, 0x91, 0x6a, 0x6c};
  EXPECT_EQ(tail, expect_tail);

  Chacha u(0xdeadbeef, 0x1234567890);
  EXPECT_EQ(u.uniform(1000003), 605951u);

  // Distinct streams diverge immediately.
  Chacha a(0, 0), c(0, 1);
  EXPECT_NE(c.next_u64(), a.next_u64());
}

TEST(GoldenTest, CoinGenDigestGf2_64) {
  // End-to-end output pin: GF2_64 Coin-Gen over the simulated cluster
  // (n=7, t=1, M=4, seed 42), then Coin-Expose of every coin. Any change
  // to the field multiply, the ChaCha stream, the row codecs or the
  // protocol schedule moves these values; a faster kernel must not.
  using F = GF2_64;
  const int n = 7, t = 1;
  const unsigned m = 4;
  const std::uint64_t seed = 42;
  auto genesis = trusted_dealer_coins<F>(n, t, 8, seed);
  std::vector<std::vector<std::uint64_t>> exposed(n);
  std::vector<std::uint64_t> share_digest(n, 0);
  const Cluster::Program player = [&](PartyIo& io) {
    CoinPool<F> pool;
    for (auto& c : genesis[io.id()]) pool.add(std::move(c));
    const auto result = coin_gen<F>(io, m, pool);
    if (!result.success) return;
    // FNV-1a over this player's pre-summed coin shares.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const F& s : result.coin_shares) {
      h = (h ^ s.to_uint()) * 0x100000001b3ull;
    }
    share_digest[io.id()] = h;
    const auto sealed = result.sealed_coins(static_cast<unsigned>(io.t()));
    for (unsigned k = 0; k < m; ++k) {
      const auto v = coin_expose<F>(io, sealed[k], /*instance=*/100 + k);
      exposed[io.id()].push_back(v ? v->to_uint() : 0);
    }
  };
  Cluster cluster(n, t, seed);
  cluster.run(player, /*faulty=*/{}, /*adversary=*/nullptr);
  const std::vector<std::uint64_t> expect_coins = {
      0xa410aca2cf1cae7cull, 0x72c18bab865f3af1ull, 0xe34c61ff8f6762faull,
      0x2cd245d3bae1e415ull};
  const std::array<std::uint64_t, 7> expect_share_digest = {
      0x3a918be27baa76fcull, 0x1a1cb3e7cbfc3948ull, 0x2adf6dcc86a7708full,
      0xe18775bf87444b10ull, 0x94c4bed583001e57ull, 0x531e4cc4e17cf263ull,
      0xc89c68f4d15d07a4ull};
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(exposed[i], expect_coins) << "player " << i;
    EXPECT_EQ(share_digest[i], expect_share_digest[i]) << "player " << i;
  }
}

TEST(GoldenTest, Gf2ModuliAreTheDocumentedOnes) {
  // The field constants are part of the wire contract (two builds with
  // different moduli cannot interoperate).
  EXPECT_EQ(gf2_detail::modulus<8>(), 0x1Bu);
  EXPECT_EQ(gf2_detail::modulus<16>(), 0x2Bu);
  EXPECT_EQ(gf2_detail::modulus<32>(), 0x8Du);
  EXPECT_EQ(gf2_detail::modulus<64>(), 0x1Bu);
}

TEST(GoldenTest, EvalPointsAreOneBased) {
  EXPECT_EQ(eval_point<GF2_64>(0).to_uint(), 1u);
  EXPECT_EQ(eval_point<GF2_64>(6).to_uint(), 7u);
}

TEST(GoldenTest, AesFieldVector) {
  // Cross-implementation anchor: AES's GF(2^8) test vector.
  EXPECT_EQ((GF2_8::from_uint(0x57) * GF2_8::from_uint(0x83)).to_uint(),
            0xC1u);
}

}  // namespace
}  // namespace dprbg
