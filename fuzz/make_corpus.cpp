// Regenerates the checked-in seed corpora under fuzz/corpus/.
//
//   make_corpus <corpus-root>
//
// Seeds are deterministic: boundary varints, valid and malformed
// envelope headers, handshake and round-frame payloads, and well-formed
// protocol bodies for every decoder the dispatching target covers — so the
// fuzzers start from inputs that already reach the deep accept paths,
// and the plain-build corpus replay (tests/fuzz_corpus_test.cpp)
// exercises both accept and reject branches of every decoder.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz/fuzz_targets.h"

namespace {

namespace fs = std::filesystem;

void write_seed(const fs::path& dir, const std::string& name,
                const std::vector<std::uint8_t>& bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::uint8_t> varint_of(std::uint64_t v) {
  std::vector<std::uint8_t> out;
  dprbg::append_varint(out, v);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_corpus <corpus-root>\n");
    return 2;
  }
  const fs::path root = argv[1];
  using dprbg::ByteWriter;
  using dprbg::EnvelopeHeader;

  // --- varint -------------------------------------------------------------
  {
    const fs::path dir = root / "varint";
    write_seed(dir, "zero", varint_of(0));
    write_seed(dir, "one_byte_max", varint_of(127));
    write_seed(dir, "two_byte_min", varint_of(128));
    write_seed(dir, "boundary_2_14", varint_of((1ull << 14) - 1));
    write_seed(dir, "boundary_2_32", varint_of(1ull << 32));
    write_seed(dir, "u64_max", varint_of(~0ull));
    write_seed(dir, "overlong_zero", {0x80, 0x00});
    write_seed(dir, "truncated_run", {0xFF, 0xFF, 0xFF});
    write_seed(dir, "overflow_10_bytes",
               {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F});
    // 8 bytes so the differential direction in the target kicks in.
    write_seed(dir, "differential", {1, 2, 3, 4, 5, 6, 7, 8});
  }

  // --- envelope_header ----------------------------------------------------
  {
    const fs::path dir = root / "envelope_header";
    EnvelopeHeader h;
    h.from = 3;
    h.tag = dprbg::make_tag(dprbg::ProtoId::kGradeCast, 2, 1);
    h.batch = 7;
    h.body_len = 96;
    {
      ByteWriter w;
      dprbg::encode_envelope_header(w, h);
      write_seed(dir, "gradecast", w.data());
    }
    write_seed(dir, "bad_flags", {0x17, 0x03});  // nonzero reserved flags
    write_seed(dir, "bad_version", {0x20});      // unknown version nibble
    write_seed(dir, "fixed_width_header",        // a 14-byte u32/u16 layout
               {0x03, 0x00, 0x00, 0x00, 0x10, 0x20, 0x00, 0x06, 0x07, 0x00,
                0x60, 0x00, 0x00, 0x00});
    {
      ByteWriter w;
      w.u8(dprbg::kV1VersionByte);
      w.bytes(varint_of(5));
      w.u8(0x80);  // truncated varint tag
      write_seed(dir, "truncated_tag", w.data());
    }
    // Maximal field values: every header field at its 32-bit ceiling.
    {
      EnvelopeHeader big;
      big.from = 0xFFFFFFFFu;
      big.tag = 0xFFFFFFFFu;
      big.batch = 0xFFFFFFFFu;
      big.body_len = 0xFFFFFFFFu;
      ByteWriter w;
      dprbg::encode_envelope_header(w, big);
      write_seed(dir, "max_fields", w.data());
    }
    // `from` overflowing 32 bits: must be rejected.
    {
      ByteWriter w;
      w.u8(dprbg::kV1VersionByte);
      w.bytes(varint_of(0x1FFFFFFFFull));
      w.bytes(varint_of(1));
      w.bytes(varint_of(1));
      w.bytes(varint_of(1));
      write_seed(dir, "from_overflow", w.data());
    }
    {
      ByteWriter w;
      w.u8(dprbg::kV1VersionByte);
      for (int i = 0; i < 4; ++i) {  // overlong zeros
        w.u8(0x80);
        w.u8(0x00);
      }
      write_seed(dir, "overlong_fields", w.data());
    }
  }

  // --- frames -------------------------------------------------------------
  {
    const fs::path dir = root / "frames";
    // data[0] & 1 selects the decoder (0 hello, 1 round frame), data[1]
    // % 8 is the handshaken peer id, the rest is the payload.
    auto with_prefix = [](std::uint8_t sel, std::uint8_t peer,
                          const std::vector<std::uint8_t>& payload) {
      std::vector<std::uint8_t> out{sel, peer};
      out.insert(out.end(), payload.begin(), payload.end());
      return out;
    };
    dprbg::HelloFrame hello;
    hello.wire_version = static_cast<std::uint8_t>(dprbg::wire_version());
    hello.roster_hash = 0x0123456789ABCDEFull;
    hello.node_id = 2;
    hello.n = 4;
    const auto hello_bytes = dprbg::encode_hello(hello);
    write_seed(dir, "hello", with_prefix(0, 0, hello_bytes));
    {
      auto bad_magic = hello_bytes;
      bad_magic[0] ^= 0xFF;
      write_seed(dir, "hello_bad_magic", with_prefix(0, 0, bad_magic));
      auto trailing = hello_bytes;
      trailing.push_back(0x00);
      write_seed(dir, "hello_trailing", with_prefix(0, 0, trailing));
      const std::vector<std::uint8_t> truncated(hello_bytes.begin(),
                                                hello_bytes.end() - 3);
      write_seed(dir, "hello_truncated", with_prefix(0, 0, truncated));
    }
    // A round frame from peer 2 with two envelopes on stream 5.
    std::vector<dprbg::Msg> msgs(2);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      msgs[i].from = 2;
      msgs[i].tag = dprbg::make_tag(dprbg::ProtoId::kVss, 1,
                                    static_cast<unsigned>(i));
      msgs[i].batch = 5;
      msgs[i].body.assign(4 + i, static_cast<std::uint8_t>(0xA0 + i));
    }
    const auto round = dprbg::encode_round_frame(5, 41, msgs);
    write_seed(dir, "round_two_envelopes", with_prefix(1, 2, round));
    write_seed(dir, "round_wrong_sender", with_prefix(1, 3, round));
    write_seed(dir, "round_barrier_marker",
               with_prefix(1, 2, dprbg::encode_round_frame(0, 0, {})));
    {
      auto foreign = round;
      foreign[3] = 0x00;  // first envelope's version byte
      write_seed(dir, "round_foreign_version", with_prefix(1, 2, foreign));
      auto truncated = round;
      truncated.pop_back();
      write_seed(dir, "round_truncated", with_prefix(1, 2, truncated));
    }
    {
      ByteWriter w;
      w.uvarint(5);
      w.uvarint(41);
      w.uvarint(1000);  // count far beyond the bytes that follow
      w.u8(0);
      write_seed(dir, "round_count_overflow", with_prefix(1, 2, w.data()));
    }
  }

  // --- protocol_decoders --------------------------------------------------
  {
    using F = dprbg::GF2_64;
    const fs::path dir = root / "protocol_decoders";
    // data[0] selects the decoder, data[1] parameterizes, rest is body.
    auto with_prefix = [](std::uint8_t sel, std::uint8_t param,
                          const std::vector<std::uint8_t>& body) {
      std::vector<std::uint8_t> out{sel, param};
      out.insert(out.end(), body.begin(), body.end());
      return out;
    };
    // Grade-Cast echoes, n == 4 (param 3 -> 1 + 3 % 16).
    std::vector<dprbg::gradecast_detail::MaybeValue> echoes(4);
    echoes[0] = std::vector<std::uint8_t>{0xAA, 0xBB};
    echoes[2] = std::vector<std::uint8_t>{};
    echoes[3] = std::vector<std::uint8_t>(8, 0x42);
    write_seed(
        dir, "echoes",
        with_prefix(0, 3, dprbg::gradecast_detail::encode_echoes(echoes)));
    write_seed(dir, "echoes_short", with_prefix(0, 3, {0, 0, 0}));
    // Clique message for n == 13, t == 2: two entries of 1 + 3*8 bytes.
    {
      ByteWriter w;
      w.u8(2);
      for (const std::uint8_t j : {std::uint8_t{1}, std::uint8_t{5}}) {
        w.u8(j);
        for (int c = 0; c < 3; ++c) {
          w.u64(0x0101010101010101ull * (j + 1) + static_cast<unsigned>(c));
        }
      }
      write_seed(dir, "clique_two_entries", with_prefix(1, 0, w.data()));
    }
    write_seed(dir, "clique_bad_count", with_prefix(1, 0, {0xFF, 0x00}));
    // Combo batch for n == 7: exactly 7 * (1 + kBytes) bytes.
    {
      std::vector<std::uint8_t> body(7 * (1 + F::kBytes), 0);
      for (int i = 0; i < 7; ++i) {
        body[static_cast<std::size_t>(i) * (1 + F::kBytes)] =
            static_cast<std::uint8_t>(i % 2);
      }
      write_seed(dir, "combo_batch_exact", with_prefix(2, 0, body));
      body.pop_back();
      write_seed(dir, "combo_batch_short", with_prefix(2, 0, body));
    }
    // Field-element row: param 4 -> count 4, body exactly 4 elements.
    write_seed(dir, "elem_row_exact",
               with_prefix(3, 4, std::vector<std::uint8_t>(4 * F::kBytes, 7)));
    // ByteReader torture: u8 + uvarint + u64_vec + bytes.
    {
      ByteWriter w;
      w.u8(0x5A);
      w.uvarint(300);
      w.u64_vec(std::vector<std::uint64_t>{1, 2, 3});
      w.bytes(std::vector<std::uint8_t>(5, 0xEE));
      write_seed(dir, "reader_mixed", with_prefix(4, 5, w.data()));
    }
    write_seed(dir, "reader_hostile_len",
               with_prefix(4, 64, {0x00, 0x01, 0xFF, 0xFF, 0xFF, 0xFF}));
    // Berlekamp-Welch differential, d = 2, e = 2 (param 2 | 2 << 2): 9
    // points of a degree-2 codeword with one error. On the grid the error
    // sits at point 0, inside the interpolated head, so the fast path
    // falls back to elimination; off the grid (param bit 4) it sits at
    // point 5 and the fast path decodes.
    {
      const dprbg::Polynomial<F> p(std::vector<F>{
          F::from_uint(0x1234), F::from_uint(0xBEEF), F::from_uint(7)});
      ByteWriter w;
      for (int i = 0; i < 9; ++i) {
        F y = p(dprbg::eval_point<F>(i));
        if (i == 0) y = y + F::one();
        dprbg::write_elem(w, y);
      }
      write_seed(dir, "bw_head_error", with_prefix(5, 0x0A, w.data()));
      ByteWriter off;
      for (int i = 0; i < 9; ++i) {
        const F x = F::from_uint(0x9E3779B97F4A7C15ull * (i + 1));
        F y = p(x);
        if (i == 5) y = y + F::one();
        dprbg::write_elem(off, y);
      }
      write_seed(dir, "bw_off_grid", with_prefix(5, 0x1A, off.data()));
    }
  }

  std::printf("corpus written under %s\n", root.string().c_str());
  return 0;
}
