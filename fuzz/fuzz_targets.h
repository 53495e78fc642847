// Shared fuzz-target bodies.
//
// Each target is an ordinary function `<name>_one(data, size)` so the
// same body is reachable three ways:
//   * `fuzz_<name>.cpp` wraps it in LLVMFuzzerTestOneInput for libFuzzer
//     (clang) or the standalone driver (gcc, standalone_main.cpp);
//   * `tests/fuzz_corpus_test.cpp` replays the checked-in corpora
//     through it in the plain tier-1 build, so every crash-found input
//     regresses without needing a fuzzing toolchain;
//   * `make_corpus.cpp` uses the same decoders to sanity-check seeds.
//
// Targets assert *invariants*, not outcomes: decoding arbitrary bytes
// may fail, but it must fail cleanly (no UB — the sanitizers' job), and
// when it succeeds the decoded value must re-encode canonically and
// respect every documented bound. FUZZ_CHECK traps on violation, which
// libFuzzer, the standalone driver, and gtest all surface as a crash.

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <span>
#include <vector>

#include "coin/bitgen.h"
#include "coin/coin_gen.h"
#include "common/metrics.h"
#include "common/serial.h"
#include "common/varint.h"
#include "gf/field_io.h"
#include "gf/gf2.h"
#include "gradecast/gradecast.h"
#include "net/framing.h"
#include "net/msg.h"
#include "poly/berlekamp_welch.h"
#include "sharing/shamir.h"

#define FUZZ_CHECK(cond)            \
  do {                              \
    if (!(cond)) __builtin_trap();  \
  } while (0)

namespace dprbg::fuzz {

// --- varint ---------------------------------------------------------------
//
// Accepted inputs must round-trip byte-identically (canonicality) and
// agree with varint_size; and every encodable value must decode back.
inline int varint_one(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::uint8_t> in(data, size);
  const VarintDecode d = read_varint(in);
  if (d.ok) {
    FUZZ_CHECK(d.bytes >= 1 && d.bytes <= kMaxVarintBytes);
    FUZZ_CHECK(d.bytes <= size);
    FUZZ_CHECK(varint_size(d.value) == d.bytes);
    std::vector<std::uint8_t> re;
    append_varint(re, d.value);
    FUZZ_CHECK(re.size() == d.bytes);
    for (std::size_t i = 0; i < re.size(); ++i) FUZZ_CHECK(re[i] == data[i]);
  }
  // Differential direction: treat the first 8 bytes as a value; its
  // encoding must decode to itself with full consumption.
  if (size >= 8) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data[i]) << (8 * i);
    }
    std::vector<std::uint8_t> enc;
    append_varint(enc, v);
    FUZZ_CHECK(enc.size() == varint_size(v));
    const VarintDecode back = read_varint(enc);
    FUZZ_CHECK(back.ok && back.value == v && back.bytes == enc.size());
  }
  return 0;
}

// --- envelope header ------------------------------------------------------
//
// Arbitrary bytes must decode cleanly; any accepted header must re-encode
// to exactly the consumed bytes and agree with envelope_header_bytes.
inline int envelope_header_one(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::uint8_t> payload(data, size);
  ByteReader r(payload);
  const auto h = decode_envelope_header(r);
  if (h) {
    const std::size_t consumed = payload.size() - r.remaining();
    ByteWriter w;
    encode_envelope_header(w, *h);
    FUZZ_CHECK(w.size() == consumed);
    FUZZ_CHECK(envelope_header_bytes(*h) == consumed);
    for (std::size_t i = 0; i < consumed; ++i) {
      FUZZ_CHECK(w.data()[i] == payload[i]);
    }
    FUZZ_CHECK(h->flags == 0);
    FUZZ_CHECK(unwire_tag(wire_tag(h->tag)) == h->tag);
  }
  return 0;
}

// --- TCP frames -----------------------------------------------------------
//
// The two payload decoders the socket boundary feeds raw peer bytes to
// (net/framing.h). data[0] & 1 selects the decoder: 0 = decode_hello,
// 1 = decode_round_frame with data[1] % 8 as the handshaken peer id; the
// rest is the payload. Both layouts are canonical, so an accepted
// payload must re-encode to exactly its bytes, and every decoded round
// envelope must respect the sender and body bounds the decoder enforces.
inline int frames_one(const std::uint8_t* data, std::size_t size) {
  if (size < 2) return 0;
  const std::span<const std::uint8_t> payload(data + 2, size - 2);
  const auto same_bytes = [&](const std::vector<std::uint8_t>& re) {
    FUZZ_CHECK(re.size() == payload.size());
    for (std::size_t i = 0; i < re.size(); ++i) {
      FUZZ_CHECK(re[i] == payload[i]);
    }
  };
  if ((data[0] & 1) == 0) {
    if (const auto h = decode_hello(payload)) same_bytes(encode_hello(*h));
    return 0;
  }
  const int peer = data[1] % 8;
  constexpr std::size_t kMaxBody = 1u << 10;
  const auto f = decode_round_frame(payload, peer, kMaxBody);
  if (f) {
    FUZZ_CHECK(f->msgs.size() <= payload.size());
    for (const Msg& m : f->msgs) {
      FUZZ_CHECK(m.from == peer);
      FUZZ_CHECK(m.body.size() <= kMaxBody);
    }
    same_bytes(encode_round_frame(f->stream, f->round, f->msgs));
  }
  return 0;
}

// --- protocol decoders ----------------------------------------------------
//
// One dispatching target over every length-validated protocol decoder:
// the Grade-Cast echo batch, the Coin-Gen clique message, the Bit-Gen
// combination batch, the field-element row, the defensive ByteReader
// itself, and the Berlekamp-Welch decoder (differentially: against its
// elimination path, and its quorum decode against the recount rule it
// replaced). data[0] selects the decoder, data[1] parameterizes it, the
// rest is the hostile body.
inline int protocol_decoders_one(const std::uint8_t* data, std::size_t size) {
  using F = GF2_64;
  if (size < 2) return 0;
  const std::uint8_t sel = data[0] % 6;
  const std::uint8_t param = data[1];
  const std::vector<std::uint8_t> body(data + 2, data + size);
  constexpr std::size_t kMaxValue = 1u << 10;
  switch (sel) {
    case 0: {
      const int n = 1 + param % 16;
      const auto decoded =
          gradecast_detail::decode_echoes(body, n, kMaxValue);
      if (decoded) {
        FUZZ_CHECK(static_cast<int>(decoded->size()) == n);
        for (const auto& v : *decoded) {
          if (v) FUZZ_CHECK(v->size() <= kMaxValue);
        }
        // The layout is canonical: re-encoding reproduces the exact bytes.
        const auto re = gradecast_detail::encode_echoes(*decoded);
        FUZZ_CHECK(re.size() == body.size());
        for (std::size_t i = 0; i < re.size(); ++i) {
          FUZZ_CHECK(re[i] == body[i]);
        }
      }
      break;
    }
    case 1: {
      const int n = 13;
      const unsigned t = 2;
      const auto msg = coin_gen_detail::decode_clique_msg<F>(body, n, t);
      if (msg) {
        FUZZ_CHECK(msg->clique.size() <= static_cast<std::size_t>(n));
        for (int m : msg->clique) FUZZ_CHECK(m >= 0 && m < n);
        for (const auto& [j, poly] : msg->polys) {
          FUZZ_CHECK(j >= 0 && j < n);
          FUZZ_CHECK(poly.degree() <= static_cast<int>(t));
        }
      }
      break;
    }
    case 2: {
      const int n = 7;
      const auto batch = bitgen_detail::decode_combo_batch<F>(body, n);
      // Shape-validated: accepted iff exactly n entries of 1 + kBytes.
      FUZZ_CHECK(batch.has_value() ==
                 (body.size() == static_cast<std::size_t>(n) * (1 + F::kBytes)));
      break;
    }
    case 3: {
      const std::size_t count = param % 9;
      const auto row = decode_elem_row<F>(body, count);
      FUZZ_CHECK(row.has_value() == (body.size() == count * F::kBytes));
      if (row) FUZZ_CHECK(row->size() == count);
      break;
    }
    case 4: {
      // The defensive reader itself: arbitrary interleaved reads never
      // read out of bounds and fail permanently once failed.
      ByteReader r(body);
      (void)r.u8();
      (void)r.uvarint();
      const auto vec = r.u64_vec(/*max_len=*/256);
      FUZZ_CHECK(vec.size() <= 256);
      const auto raw = r.bytes(param, /*max_len=*/64);
      FUZZ_CHECK(raw.size() <= 64);
      if (!r.ok()) {
        FUZZ_CHECK(r.remaining() == 0);  // failed readers park at the end
        FUZZ_CHECK(!r.done());
      }
      break;
    }
    case 5: {
      // The body's elements are the y values of up to 24 points; param
      // picks the degree bound (bits 0-1), the error bound (bits 2-3) and
      // the grid (bit 4: canonical 1..n, or distinct points off it). The
      // interpolate-first decoder must return exactly what elimination
      // returns, each charging one interpolation when it decodes at all.
      const unsigned d = param % 4;
      const unsigned e = (param >> 2) % 4;
      const bool off_grid = (param & 0x10) != 0;
      const std::size_t n = std::min<std::size_t>(body.size() / F::kBytes, 24);
      ByteReader rd(body);
      std::vector<PointValue<F>> pts;
      for (std::size_t i = 0; i < n; ++i) {
        // An odd multiplier is a bijection mod 2^64: distinct x's.
        const F x = off_grid ? F::from_uint(0x9E3779B97F4A7C15ull * (i + 1))
                             : eval_point<F>(static_cast<int>(i));
        pts.push_back({x, read_elem<F>(rd)});
      }
      const std::uint64_t charged = n >= d + 1 ? 1 : 0;
      const std::uint64_t before = field_counters().interpolations;
      const auto fast = berlekamp_welch<F>(pts, d, e);
      const std::uint64_t mid = field_counters().interpolations;
      const auto slow = bw_detail::eliminate<F>(pts, d, e);
      const std::uint64_t after = field_counters().interpolations;
      FUZZ_CHECK(fast == slow);
      FUZZ_CHECK(mid - before == charged && after - mid == charged);
      if (fast) FUZZ_CHECK(fast->degree() <= static_cast<int>(d));
      // The dealing rounds' quorum decode must return what the rule it
      // replaced returns: Berlekamp-Welch at min(d, cap), then a recount
      // of agreements against the quorum. That rule used one t as degree
      // and fault bound, so it covers the quorums n - t' for t' <= t.
      for (const std::size_t need : {n - std::min(e, d), n - d}) {
        const bool heard = n >= need && n >= d + 1;
        const std::uint64_t start = field_counters().interpolations;
        const auto quorum = decode_quorum<F>(pts, d, need);
        const std::uint64_t split = field_counters().interpolations;
        std::optional<Polynomial<F>> recount;
        if (n >= need) {
          const std::size_t cap = n > d ? (n - d - 1) / 2 : 0;
          recount = berlekamp_welch<F>(
              pts, d, static_cast<unsigned>(std::min<std::size_t>(d, cap)));
          std::size_t agreements = 0;
          for (const auto& pv : pts) {
            if (recount && (*recount)(pv.x) == pv.y) ++agreements;
          }
          if (agreements < need) recount.reset();
        }
        const std::uint64_t end = field_counters().interpolations;
        FUZZ_CHECK(quorum == recount);
        FUZZ_CHECK(split - start == (heard ? 1u : 0u));
        FUZZ_CHECK(end - split == (heard ? 1u : 0u));
      }
      break;
    }
    default:
      break;
  }
  return 0;
}

}  // namespace dprbg::fuzz
