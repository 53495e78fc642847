// Protocol Bit-Gen (Fig. 4): broadcast-free batch sharing of sealed bits.
//
// Model (Section 4): n >= 6t + 1, point-to-point channels only, access to
// sealed random k-ary coins.
//
//   Dealer: picks M_total random degree-t polynomials f_1..f_M and sends
//           player P_i the row (f_1(i), ..., f_M(i)).          [1 round]
//   All:    r <- Coin-Expose(k-ary coin).
//   P_i:    beta_i = sum_j alpha_ij r^j (Horner), sent to ALL players
//           point-to-point.                                     [1 round]
//   P_i:    S = set of received betas; Berlekamp-Welch a polynomial F
//           with deg(F) <= t agreeing with >= n - t values of S;
//           output (F, S) or (bottom, S).
//
// Without a broadcast channel players may disagree on whether a given
// dealer's run succeeded — that is resolved by Coin-Gen's clique +
// grade-cast + BA machinery (coin_gen.h); Bit-Gen itself only produces
// each player's local view. bit_gen_single is the dealing round of
// vss/dealing_round.h; bit_gen_all runs n of them under one coin and
// batches step 3 into one message per recipient.
//
// Round layout: the dealer's rows travel in the same round as the
// challenge-coin shares. This is sound — the dealer commits to its rows
// before anyone (itself included) can know r — and matches Lemma 6's
// message accounting (n messages of size Mk for the rows, n^2 of size k
// for the coin, n^2 of size k for the combinations).
//
// Blinding: callers that later *reveal* some of the shared secrets
// (Coin-Gen) prepend one extra random polynomial to the batch, so the
// published combination beta does not reduce the adversary's uncertainty
// about the usable secrets (DESIGN.md §3). Bit-Gen itself is agnostic:
// it verifies whatever batch it is given.

#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/trace.h"
#include "gf/field_concept.h"
#include "gf/field_io.h"
#include "net/endpoint.h"
#include "net/msg.h"
#include "poly/interpolate.h"
#include "poly/polynomial.h"
#include "vss/dealing_round.h"
#include "coin/coin_expose.h"
#include "coin/sealed_coin.h"

namespace dprbg {

namespace bitgen_detail {

// Batched combination message (bit_gen_all step 3): per dealer, one
// presence flag + one field element. Exact-size validation up front; a
// malformed batch rejects as a whole (the sender is dropped from every
// instance), so a Byzantine sender cannot contribute to some instances
// and corrupt others within one message.
template <FiniteField F>
std::optional<std::vector<std::optional<F>>> decode_combo_batch(
    std::span<const std::uint8_t> bytes, int n) {
  if (bytes.size() != static_cast<std::size_t>(n) * (1 + F::kBytes)) {
    return std::nullopt;
  }
  ByteReader rd(bytes);
  std::vector<std::optional<F>> out(n);
  for (int dealer = 0; dealer < n; ++dealer) {
    const bool present = rd.u8() != 0;
    const F beta = read_elem<F>(rd);
    if (present) out[dealer] = beta;
  }
  if (!rd.done()) return std::nullopt;
  return out;
}

// Step 3 for every dealer at once: sets each view's my_beta to the Horner
// combination of its row under r (nullopt for an empty row) and sends
// everyone the batched message. The combinations run through the blocked
// kernel (one SoA pass over the share matrix, no per-row allocation);
// wire format and per-row op counts are the scalar per-dealer loop's.
template <FiniteField F, NetEndpoint Io>
void send_combo_batch(Io& io, std::span<BitGenView<F>> views,
                      std::size_t m_total, F r, std::uint32_t tag) {
  ArenaScope scope(scratch_arena());
  ScratchVec<const F*> rows(scope, views.size());
  std::size_t present = 0;
  for (const auto& view : views) {
    if (!view.my_row.empty()) rows[present++] = view.my_row.data();
  }
  ScratchVec<F> betas(scope, present);
  batch_combine_block<F>(std::span<const F* const>(rows.data(), present),
                         m_total, r, betas);
  ByteWriter w(views.size() * (1 + F::kBytes));
  std::size_t next_beta = 0;
  for (auto& view : views) {
    if (!view.my_row.empty()) view.my_beta = betas[next_beta++];
    w.u8(view.my_beta ? 1 : 0);
    write_elem(w, view.my_beta.value_or(F::zero()));
  }
  io.send_all(tag, w.data());
}

// Collects the batched messages of senders first_from .. first_from +
// count - 1 into each dealer's combos, keyed by the sender's offset
// (sender - first_from, the index of its evaluation point). Anyone else's
// message is ignored; a malformed one drops its sender from every
// instance and is scored.
template <FiniteField F, NetEndpoint Io>
void collect_combo_batches(Io& io, const Inbox& in, std::uint32_t tag,
                           int first_from, int count,
                           std::span<BitGenView<F>> views) {
  const int dealers = static_cast<int>(views.size());
  for (const Msg* msg : in.with_tag(tag)) {
    const int offset = msg->from - first_from;
    if (offset < 0 || offset >= count) continue;
    const auto batch = decode_combo_batch<F>(msg->body, dealers);
    if (!batch) {
      io.note_decode_failure(msg->from);
      continue;
    }
    for (int dealer = 0; dealer < dealers; ++dealer) {
      if ((*batch)[dealer]) views[dealer].combos.emplace(offset, *(*batch)[dealer]);
    }
  }
}

}  // namespace bitgen_detail

inline constexpr DealingRound kBitGenRound{ProtoId::kBitGen, 1, "bitgen",
                                           "combine", "decode"};

// Single-dealer Bit-Gen, exactly Fig. 4 (used standalone by tests and the
// E6 benchmark). The dealer passes its M_total polynomials; everyone else
// passes an empty matrix. Consumes 2 rounds. A player without a row
// announces nothing.
template <FiniteField F, NetEndpoint Io>
BitGenView<F> bit_gen_single(Io& io, int dealer, unsigned m_total,
                             unsigned t, const CoeffMatrix<F>& dealer_polys,
                             const SealedCoin<F>& challenge_coin,
                             unsigned instance = 0) {
  return dealing_round<F>(
             io, kBitGenRound, dealer, t, m_total, dealer_polys,
             challenge_coin, instance,
             [](std::span<const F> row, F r) -> std::optional<F> {
               if (row.empty()) return std::nullopt;
               return batch_combine<F>(row, r);
             })
      .view;
}

// All n Bit-Gen instances in parallel with one shared challenge coin
// (Fig. 5 steps 1-3: "Participate in all invocations of Bit-Gen_j ...
// using the same coin r for all invocations"). Each player deals the
// polynomials in `my_polys` (M_total columns). Combination shares for all n
// instances are batched into a single message per recipient, giving the
// n^2 messages of size kn of Theorem 2. Consumes 2 rounds.
template <FiniteField F>
struct BitGenAllOutcome {
  std::optional<F> challenge;
  std::vector<BitGenView<F>> views;  // indexed by dealer
};

template <FiniteField F, NetEndpoint Io>
BitGenAllOutcome<F> bit_gen_all(Io& io, const CoeffMatrix<F>& my_polys,
                                unsigned m_total, unsigned t,
                                const SealedCoin<F>& challenge_coin,
                                unsigned instance = 0) {
  const std::uint32_t row_tag = make_tag(ProtoId::kBitGen, instance, 0);
  const std::uint32_t combo_tag = make_tag(ProtoId::kBitGen, instance, 1);
  const int n = io.n();
  DPRBG_CHECK(my_polys.size() == m_total);

  // Everyone deals (step 1 of its own instance).
  {
    TraceSpan deal(io, "bitgen", "deal");
    deal_rows<F>(io, my_polys, row_tag, 0, n);
  }

  BitGenAllOutcome<F> out;
  out.views.resize(n);
  TraceSpan challenge(io, "bitgen", "challenge");
  out.challenge = coin_expose<F>(io, challenge_coin, instance);
  challenge.close();
  for (int dealer = 0; dealer < n; ++dealer) {
    out.views[dealer].my_row = received_row<F>(io, dealer, row_tag, m_total);
  }
  if (!out.challenge.has_value()) {
    io.sync();
    return out;
  }

  TraceSpan combine(io, "bitgen", "combine");
  bitgen_detail::send_combo_batch<F>(io, std::span(out.views), m_total,
                                     *out.challenge, combo_tag);
  const Inbox& in = io.sync();
  combine.close();

  TraceSpan decode(io, "bitgen", "decode");
  bitgen_detail::collect_combo_batches<F>(io, in, combo_tag, 0, n,
                                          std::span(out.views));
  for (int dealer = 0; dealer < n; ++dealer) {
    decode_view<F>(io, out.views[dealer], t,
                   static_cast<std::size_t>(n) - t, "bitgen", dealer);
  }
  return out;
}

}  // namespace dprbg
