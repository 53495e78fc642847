// The dealing round of Figs. 2-4, written once.
//
// VSS (Fig. 2), Batch-VSS (Fig. 3) and Bit-Gen (Fig. 4) are one step:
//
//   1. The dealer sends each player P_i its row: every polynomial of its
//      batch evaluated at i.                                    [1 round]
//   2. r <- Coin-Expose(one sealed coin), in the same round as the rows:
//      the dealer committed before anyone could know r.
//   3. P_i sends everyone beta_i, one combination of its row under r:
//      Fig. 2's alpha_i + r*gamma_i, or Figs. 3-4's Horner
//      sum_j alpha_ij r^j.                                      [1 round]
//   4. Everyone decodes the announced betas with decode_quorum: accept
//      iff some degree-<=t polynomial fits >= n - t of them.
//
// Lemmas 1 and 3 are the same root argument for both combinations: a
// dealer whose batch is not all degree <= t is accepted only if r is a
// root of a nonzero polynomial fixed before r was exposed. The single-
// dealer callers are thin wrappers over dealing_round below; Bit-Gen's
// n parallel instances (coin/bitgen.h bit_gen_all) and the cross-roster
// reshare (dprbg/proactive.h) reuse deal_rows, received_row and
// decode_view, batching step 3 for all dealers into one message.

#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/check.h"
#include "common/trace.h"
#include "gf/field_concept.h"
#include "gf/field_io.h"
#include "net/endpoint.h"
#include "net/msg.h"
#include "poly/berlekamp_welch.h"
#include "poly/polynomial.h"
#include "sharing/shamir.h"
#include "coin/coin_expose.h"
#include "coin/sealed_coin.h"

namespace dprbg {

// Horner combination of Fig. 3 / Fig. 4: sum_{j=1..M} shares[j-1] * r^j.
template <FiniteField F>
F batch_combine(std::span<const F> shares, F r) {
  F acc = F::zero();
  for (std::size_t j = shares.size(); j-- > 0;) {
    acc = (acc + shares[j]) * r;
  }
  return acc;
}

// One player's local view of one dealer's round. Bit-Gen returns it as
// is; the VSS wrappers read accepted() and my_row from it.
template <FiniteField F>
struct BitGenView {
  // The row of shares this player received from the dealer (size M_total),
  // or empty when the dealer sent nothing/garbage to us.
  std::vector<F> my_row;
  // This player's own combination beta of my_row under the challenge r,
  // as computed and sent in step 3; nullopt when my_row is empty or r
  // did not expose. Coin-Gen's qualification check reads it instead of
  // recombining the row.
  std::optional<F> my_beta;
  // S: the combination shares received in step 3, keyed by sender.
  std::map<int, F> combos;
  // F(x): the decoded combined polynomial, or nullopt for "bottom".
  std::optional<Polynomial<F>> poly;

  [[nodiscard]] bool accepted() const { return poly.has_value(); }
};

// Step 1: sends players first_to .. first_to + count - 1 their rows of
// `polys`, player first_to + j getting every polynomial evaluated at
// eval_point(j), as one message of polys.size() field elements.
template <FiniteField F, NetEndpoint Io>
void deal_rows(Io& io, const CoeffMatrix<F>& polys, std::uint32_t tag,
               int first_to, int count) {
  ArenaScope scope(scratch_arena());
  ScratchVec<F> vals(scope, polys.size());
  for (int j = 0; j < count; ++j) {
    eval_polys_block<F>(polys, eval_point<F>(j), vals);
    ByteWriter w(polys.size() * F::kBytes);
    write_elem_row<F>(w, vals);
    io.send(first_to + j, tag, std::move(w).take());
  }
}

// The row `from` dealt this player in the last delivered round: exactly
// m elements, or empty when none (or a malformed one) arrived.
template <FiniteField F, NetEndpoint Io>
std::vector<F> received_row(const Io& io, int from, std::uint32_t tag,
                            std::size_t m) {
  if (const Msg* msg = io.inbox().from(from, tag)) {
    if (auto row = decode_elem_row<F>(msg->body, m)) return std::move(*row);
  }
  return {};
}

// Step 4 for one dealer: the quorum decode of the announced combinations
// (sender s at eval_point(s)) into view.poly. A failure is a
// "decode-fail" trace point under protocol `trace`.
template <FiniteField F, NetEndpoint Io>
void decode_view(const Io& io, BitGenView<F>& view, unsigned t,
                 std::size_t need, std::string_view trace, int dealer) {
  std::vector<PointValue<F>> points;
  points.reserve(view.combos.size());
  for (const auto& [sender, beta] : view.combos) {
    points.push_back({eval_point<F>(sender), beta});
  }
  view.poly = decode_quorum<F>(points, t, need);
  if (!view.poly && tracer().enabled()) {
    trace_point(trace, "decode-fail", io.id(), io.rounds(),
                "dealer=" + std::to_string(dealer), io.stream(),
                io.committee());
  }
}

// What tells one single-dealer caller's round from another's: its tags
// (rows travel at tag phase 0, combinations at `combo_phase`) and its
// trace vocabulary (the spans "deal", "challenge", `combine_span` and
// `decode_span` under protocol `trace`).
struct DealingRound {
  ProtoId proto;
  unsigned combo_phase;
  const char* trace;
  const char* combine_span;
  const char* decode_span;
};

template <FiniteField F>
struct DealingRoundOutcome {
  // r, or nullopt when the challenge coin failed to expose (every player
  // then rejects in lockstep).
  std::optional<F> challenge;
  BitGenView<F> view;
};

// One dealer, one challenge coin, one decode (2 rounds). The dealer
// passes its batch of m polynomials; everyone else passes an empty
// matrix. `combine(row, r)` is the beta this player announces for its
// row (empty when none arrived), or nullopt to announce nothing.
template <FiniteField F, NetEndpoint Io, typename Combine>
DealingRoundOutcome<F> dealing_round(Io& io, const DealingRound& round,
                                     int dealer, unsigned t, unsigned m,
                                     const CoeffMatrix<F>& dealer_polys,
                                     const SealedCoin<F>& challenge_coin,
                                     unsigned instance, Combine combine) {
  const std::uint32_t row_tag = make_tag(round.proto, instance, 0);
  const std::uint32_t combo_tag =
      make_tag(round.proto, instance, round.combo_phase);
  const int n = io.n();

  {
    TraceSpan deal(io, round.trace, "deal");
    if (io.id() == dealer) {
      DPRBG_CHECK(dealer_polys.size() == m);
      deal_rows<F>(io, dealer_polys, row_tag, 0, n);
    }
  }

  DealingRoundOutcome<F> out;
  TraceSpan challenge(io, round.trace, "challenge");
  out.challenge = coin_expose<F>(io, challenge_coin, instance);
  challenge.close();
  out.view.my_row = received_row<F>(io, dealer, row_tag, m);
  if (!out.challenge.has_value()) {
    io.sync();  // keep lockstep with players announcing below
    return out;
  }

  TraceSpan combine_span(io, round.trace, round.combine_span);
  out.view.my_beta =
      combine(std::span<const F>(out.view.my_row), *out.challenge);
  if (out.view.my_beta) {
    ByteWriter w;
    write_elem(w, *out.view.my_beta);
    io.send_all(combo_tag, w.data());
  }
  const Inbox& in = io.sync();
  combine_span.close();

  TraceSpan decode(io, round.trace, round.decode_span);
  for (const Msg* msg : in.with_tag(combo_tag)) {
    const auto beta = decode_elem_row<F>(msg->body, 1);
    if (!beta) {
      io.note_decode_failure(msg->from);
      continue;
    }
    out.view.combos.emplace(msg->from, (*beta)[0]);
  }
  decode_view<F>(io, out.view, t,
                 static_cast<std::size_t>(n) - static_cast<std::size_t>(t),
                 round.trace, dealer);
  return out;
}

}  // namespace dprbg
