// Baseline: cut-and-choose VSS in the style of Chaum-Crepeau-Damgard [9]
// (Section 3.1: "The method presented in [9] is a cut-and-choose
// protocol. Roughly speaking, the dealer ... is asked to share k
// additional polynomials g_1..g_k. For each j the players decide whether
// to reconstruct g_j(x) or f(x) + g_j(x), and check if the reconstructed
// polynomial is of degree <= t. Thus, in this approach k polynomial
// interpolations are computed in order to achieve a probability of error
// less than 1/2^k.")
//
// This is the comparison point of experiment E3: against our VSS (Fig. 2)
// which achieves error 1/p = 2^-k with ONE degree-check interpolation,
// the cut-and-choose baseline pays kappa interpolations for error
// 2^-kappa.
//
// The challenge bits are the bits of one exposed k-ary coin, so both
// protocols consume exactly one sealed coin and the measured difference
// is purely the per-instance verification work.

#pragma once

#include <optional>
#include <span>
#include <vector>

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

template <FiniteField F>
struct CutAndChooseOutcome {
  bool accepted = false;
  F share = F::zero();  // alpha_i = f(i)
};

// kappa <= F::kBits challenge rounds from one coin. Dealer passes f;
// blinding polynomials are generated internally from its local
// randomness. 3 rounds total (distribute, expose, reveal).
template <FiniteField F, NetEndpoint Io>
CutAndChooseOutcome<F> cut_and_choose_vss(
    Io& io, int dealer, unsigned t, unsigned kappa,
    const std::optional<Polynomial<F>>& dealer_poly,
    const SealedCoin<F>& challenge_coin, unsigned instance = 0) {
  DPRBG_CHECK(kappa >= 1 && kappa <= F::kBits);
  const std::uint32_t share_tag =
      make_tag(ProtoId::kBaselineCoin, instance, 0);
  const std::uint32_t reveal_tag =
      make_tag(ProtoId::kBaselineCoin, instance, 2);
  const int n = io.n();

  // Round 1: dealer distributes shares of f and of g_1..g_kappa.
  if (io.id() == dealer) {
    DPRBG_CHECK(dealer_poly.has_value());
    std::vector<Polynomial<F>> blinds;
    for (unsigned j = 0; j < kappa; ++j) {
      blinds.push_back(Polynomial<F>::random(t, io.rng()));
    }
    for (int i = 0; i < n; ++i) {
      ByteWriter w;
      write_elem(w, (*dealer_poly)(eval_point<F>(i)));
      for (const auto& g : blinds) write_elem(w, g(eval_point<F>(i)));
      io.send(i, share_tag, std::move(w).take());
    }
  }

  // Round 2: expose the coin; its bits are the kappa cut-and-choose
  // challenges.
  const std::optional<F> coin_val =
      coin_expose<F>(io, challenge_coin, instance);
  F alpha = F::zero();
  std::vector<F> gammas(kappa, F::zero());
  bool have_shares = false;
  if (const Msg* mine = io.inbox().from(dealer, share_tag)) {
    // Exactly alpha + kappa gammas, size-validated before reading.
    if (const auto row = decode_elem_row<F>(mine->body, 1 + kappa)) {
      alpha = (*row)[0];
      for (unsigned j = 0; j < kappa; ++j) gammas[j] = (*row)[1 + j];
      have_shares = true;
    }
  }
  if (!coin_val.has_value()) {
    io.sync();
    return {};
  }
  const std::uint64_t challenge_bits = coin_val->to_uint();

  // Round 3: for each j reveal g_j(i) or f(i) + g_j(i) per challenge bit.
  {
    ByteWriter w;
    for (unsigned j = 0; j < kappa; ++j) {
      const bool add_f = ((challenge_bits >> j) & 1u) != 0;
      write_elem(w, have_shares
                        ? (add_f ? alpha + gammas[j] : gammas[j])
                        : F::zero());
    }
    io.send_all(reveal_tag, w.data());
  }
  const Inbox& in = io.sync();

  // kappa degree checks = kappa interpolations (the baseline's cost).
  std::vector<std::vector<PointValue<F>>> points(kappa);
  for (const Msg* m : in.with_tag(reveal_tag)) {
    const auto values = decode_elem_row<F>(m->body, kappa);
    if (!values) continue;
    for (unsigned j = 0; j < kappa; ++j) {
      points[j].push_back({eval_point<F>(m->from), (*values)[j]});
    }
  }
  CutAndChooseOutcome<F> out;
  out.share = alpha;
  const std::size_t need = static_cast<std::size_t>(n - io.t());
  for (unsigned j = 0; j < kappa; ++j) {
    if (!decode_quorum<F>(points[j], t, need)) return out;
  }
  out.accepted = true;
  return out;
}

}  // namespace dprbg
