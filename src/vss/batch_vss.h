// Protocol Batch-VSS (Fig. 3): verify M sharings at the cost of one.
//
// Model as in vss.h (Section 3: n >= 3t+1, broadcast assumption, one
// sealed coin available).
//
//   1. r <- Coin-Expose(k-ary coin).
//   2. P_i computes beta_i = r*alpha_iM + ... evaluated by Horner as
//      ((...(r*alpha_iM + alpha_i(M-1))r + ...)r + alpha_i1)r
//      = sum_{j=1}^{M} alpha_ij r^j.
//   3. P_i broadcasts beta_i.
//   4. Interpolate F(x) through beta_1..beta_n; accept iff deg(F) <= t.
//
// The dealing round of vss/dealing_round.h runs these steps, with the
// Horner combination batch_combine.
//
// Soundness (Lemma 3): if some f_j has degree > t, acceptance requires r
// to be a root of a nonzero degree-M polynomial fixed before r was
// exposed — probability at most M/p.
//
// Costs (Lemma 4): 2 interpolations total and 2 rounds of n messages —
// *independent of M* — so the amortized cost per verified secret is
// O(1) communication and ~2k log k additions (Corollary 1).
//
// Secrecy note: the broadcast combination reveals one random linear
// combination of each player's M shares. When the shared values must stay
// unpredictable even after M-1 of them are later revealed (the coin
// use-case), the dealer includes one extra blinding polynomial in the
// batch — see Bit-Gen (coin/bitgen.h) and DESIGN.md §3. As a pure degree
// check (Problem 2) the protocol is implemented here exactly as in Fig. 3.

#pragma once

#include <optional>
#include <span>
#include <vector>

#include "gf/field_concept.h"
#include "net/endpoint.h"
#include "net/msg.h"
#include "poly/polynomial.h"
#include "coin/sealed_coin.h"
#include "vss/dealing_round.h"

namespace dprbg {

template <FiniteField F>
struct BatchVssOutcome {
  bool accepted = false;
  // This player's M shares (row i of the share matrix), as received.
  std::vector<F> shares;
  F challenge = F::zero();
};

inline constexpr DealingRound kBatchVssRound{
    ProtoId::kBatchVss, 2, "batch-vss", "combine", "interpolate"};

// Distribution (1 round) + challenge exposure (1 round) + combination
// broadcast and local decision (1 round). The dealer passes its M
// polynomials; everyone else passes an empty matrix. `expected_m` is
// the publicly known batch size M. The dealer hands every player its row
// of the share matrix in a single message of M field elements (size Mk
// bits, matching Lemma 6's accounting); one interpolation certifies all
// M sharings at once.
template <FiniteField F, NetEndpoint Io>
BatchVssOutcome<F> batch_vss(Io& io, int dealer, unsigned t,
                             unsigned expected_m,
                             const CoeffMatrix<F>& dealer_polys,
                             const SealedCoin<F>& challenge_coin,
                             unsigned instance = 0) {
  // A player the dealer skipped announces the combination of its zero
  // row (the broadcast model has every player announce).
  auto round = dealing_round<F>(
      io, kBatchVssRound, dealer, t, expected_m, dealer_polys,
      challenge_coin, instance,
      [](std::span<const F> row, F r) -> std::optional<F> {
        return batch_combine<F>(row, r);
      });
  BatchVssOutcome<F> out;
  out.accepted = round.view.accepted();
  out.shares = std::move(round.view.my_row);
  if (out.shares.empty()) out.shares.assign(expected_m, F::zero());
  out.challenge = round.challenge.value_or(F::zero());
  return out;
}

}  // namespace dprbg
