// Protocol VSS (Fig. 2): verifiable secret sharing of a single secret.
//
// Model (Section 3): n >= 3t + 1, broadcast channel available. The
// broadcast channel is an *assumption* of this section (Section 4 removes
// it); we realize it as send-to-all — protocols in this file may only be
// run with adversaries that respect the broadcast abstraction (no
// equivocation on broadcast tags). Access to one sealed random k-ary coin
// is assumed, "a realistic assumption in the presence of a D-PRBG".
//
//   1. The dealer D shares f(x) (the secret sharing under test) and an
//      additional blinding polynomial g(x), so each player P_i holds
//      alpha_i = f(i) and gamma_i = g(i).
//   2. r <- Coin-Expose(k-ary coin).
//   3. P_i broadcasts beta_i = alpha_i + r * gamma_i.
//   4. Interpolate F(x) through beta_1..beta_n; accept iff deg(F) <= t.
//
// Steps 1-4 are the dealing round of vss/dealing_round.h, with
// alpha_i + r * gamma_i as its combination.
//
// Soundness (Lemma 1): if no degree-<=t polynomial matches the honest
// shares, acceptance requires the dealer to have guessed -a_j / r before
// r was exposed — probability at most 1/p.
//
// Costs (Lemma 2): 2 polynomial interpolations (one here, one inside
// Coin-Expose), 2 rounds of n messages of size k each.

#pragma once

#include <array>
#include <optional>
#include <span>

#include "gf/field_concept.h"
#include "net/endpoint.h"
#include "net/msg.h"
#include "poly/polynomial.h"
#include "coin/sealed_coin.h"
#include "vss/dealing_round.h"

namespace dprbg {

template <FiniteField F>
struct VssOutcome {
  // Unanimous accept/reject (under the broadcast assumption all honest
  // players decide identically).
  bool accepted = false;
  // This player's share alpha_i of the secret (meaningful when accepted).
  F share = F::zero();
  // The challenge used (exposed seed coin), for diagnostics.
  F challenge = F::zero();
};

inline constexpr DealingRound kVssRound{ProtoId::kVss, 2, "vss", "respond",
                                        "interpolate"};

// Runs the full protocol: share distribution (1 round), challenge
// exposure (1 round), combination broadcast + local decision (1 round).
// `dealer_poly` must be set iff io.id() == dealer; a *cheating* dealer
// passes a polynomial of degree > t (or sends inconsistent shares via a
// custom program instead of calling this function).
template <FiniteField F, NetEndpoint Io>
VssOutcome<F> vss_share_and_verify(
    Io& io, int dealer, unsigned t,
    const std::optional<Polynomial<F>>& dealer_poly,
    const SealedCoin<F>& challenge_coin, unsigned instance = 0) {
  // Step 1: the dealer's batch is f (the sharing under test) and a fresh
  // blinding polynomial g, so each player P_i holds (alpha_i, gamma_i).
  CoeffMatrix<F> fg;
  if (io.id() == dealer) {
    DPRBG_CHECK(dealer_poly.has_value());
    const std::array<Polynomial<F>, 2> polys{
        *dealer_poly, Polynomial<F>::random(t, io.rng())};
    fg = CoeffMatrix<F>::from_polys(polys);
  }
  // Steps 2-4. Under the broadcast model every player announces, one the
  // dealer skipped with its zero row.
  const auto round = dealing_round<F>(
      io, kVssRound, dealer, t, 2, fg, challenge_coin, instance,
      [](std::span<const F> row, F r) -> std::optional<F> {
        return row.empty() ? F::zero() : row[0] + r * row[1];
      });
  if (!round.challenge) return {};  // seed coin failed to expose: reject
  VssOutcome<F> out;
  out.accepted = round.view.accepted();
  out.share = round.view.my_row.empty() ? F::zero() : round.view.my_row[0];
  out.challenge = *round.challenge;
  return out;
}

}  // namespace dprbg
