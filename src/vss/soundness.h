// Monte Carlo soundness experiments for Lemmas 1, 3 and 5.
//
// The lemmas bound the probability that an *optimal* cheating dealer gets
// an invalid sharing accepted: 1/p for single VSS (Lemma 1), M/p for
// Batch-VSS (Lemma 3) and Bit-Gen (Lemma 5). To make these probabilities
// measurable the experiments run over a deliberately small field
// (GF(2^8), p = 256) and implement the dealer strategy that meets the
// bound with equality:
//
//  * Lemma 1: the dealer guesses a challenge r*, shares f of degree t+1,
//    and picks the blinding polynomial g with x^(t+1)-coefficient
//    -a_(t+1)/r*, so the combination f + r g has degree <= t iff r = r*.
//    Acceptance probability: exactly 1/p.
//  * Lemma 3/5: the dealer picks M-1 distinct nonzero target challenges
//    rho_1..rho_(M-1) and chooses the x^(t+1)-coefficients c_j of its M
//    polynomials so that sum_j c_j r^j = r * prod_i (r - rho_i). The
//    combination has degree <= t iff r is one of the M roots {0, rho_i}.
//    Acceptance probability: exactly M/p.
//
// These are pure algebra (the network adds nothing to the event), so the
// trials run offline and fast; the protocol-level plumbing is covered by
// the cluster tests.

#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "gf/field_concept.h"
#include "poly/berlekamp_welch.h"
#include "poly/interpolate.h"
#include "poly/polynomial.h"
#include "rng/chacha.h"
#include "sharing/shamir.h"

namespace dprbg {

struct SoundnessResult {
  std::uint64_t trials = 0;
  std::uint64_t accepts = 0;

  [[nodiscard]] double rate() const {
    return trials == 0 ? 0.0 : double(accepts) / double(trials);
  }
};

// Lemma 1: single-VSS soundness against the optimal cheating dealer.
template <FiniteField F>
SoundnessResult vss_soundness_trials(int n, unsigned t,
                                     std::uint64_t trials,
                                     std::uint64_t seed) {
  Chacha rng(seed, 0x50FD);
  SoundnessResult result;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    // Dealer: invalid sharing (degree t+1, leading coefficient nonzero).
    auto f = Polynomial<F>::random(t, rng);
    std::vector<F> f_coeffs(f.coeffs());
    f_coeffs.resize(t + 2, F::zero());
    f_coeffs[t + 1] = random_nonzero<F>(rng);
    const Polynomial<F> bad_f{std::move(f_coeffs)};
    // Dealer guesses r* and builds the canceling blinder.
    const F r_guess = random_nonzero<F>(rng);
    auto g = Polynomial<F>::random(t, rng);
    std::vector<F> g_coeffs(g.coeffs());
    g_coeffs.resize(t + 2, F::zero());
    g_coeffs[t + 1] = bad_f.coeff(t + 1) / r_guess;  // char 2: -x = x
    const Polynomial<F> blind{std::move(g_coeffs)};
    // Honest challenge.
    const F r = random_element<F>(rng);
    // Players broadcast beta_i = f(i) + r g(i); accept iff deg <= t.
    std::vector<PointValue<F>> points;
    for (int i = 0; i < n; ++i) {
      const F x = eval_point<F>(i);
      points.push_back({x, bad_f(x) + r * blind(x)});
    }
    ++result.trials;
    if (is_degree_at_most<F>(points, t)) ++result.accepts;
  }
  return result;
}

namespace soundness_detail {

// x^(t+1)-coefficients c_1..c_M such that sum_j c_j r^j =
// r * prod_{i<M} (r - rho_i) for distinct nonzero rho_i.
template <FiniteField F>
std::vector<F> rooted_coefficients(unsigned m, Chacha& rng) {
  // Distinct nonzero roots.
  std::vector<F> roots;
  while (roots.size() + 1 < m) {
    const F rho = random_nonzero<F>(rng);
    bool fresh = true;
    for (const F& r0 : roots) {
      if (r0 == rho) fresh = false;
    }
    if (fresh) roots.push_back(rho);
  }
  Polynomial<F> q = Polynomial<F>::constant(F::one());
  for (const F& rho : roots) {
    q = q * Polynomial<F>{{rho, F::one()}};  // (x + rho) = (x - rho)
  }
  // q has degree m-1; c_j = coeff of x^(j-1) in q (the extra factor r
  // shifts indices by one).
  std::vector<F> c(m);
  for (unsigned j = 1; j <= m; ++j) c[j - 1] = q.coeff(j - 1);
  return c;
}

}  // namespace soundness_detail

// Lemma 3: Batch-VSS soundness, optimal M-root dealer. `m` must satisfy
// m <= p - 1 so the distinct roots exist.
template <FiniteField F>
SoundnessResult batch_soundness_trials(int n, unsigned t, unsigned m,
                                       std::uint64_t trials,
                                       std::uint64_t seed) {
  DPRBG_CHECK(m >= 1);
  Chacha rng(seed, 0xBA7C);
  SoundnessResult result;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    const auto c = soundness_detail::rooted_coefficients<F>(m, rng);
    // M polynomials of degree t+1 whose high coefficients are c_j; the
    // degree-<=t parts are irrelevant to the acceptance event but are
    // randomized anyway.
    std::vector<Polynomial<F>> polys;
    for (unsigned j = 0; j < m; ++j) {
      auto base = Polynomial<F>::random(t, rng);
      std::vector<F> coeffs(base.coeffs());
      coeffs.resize(t + 2, F::zero());
      coeffs[t + 1] = c[j];
      polys.emplace_back(std::move(coeffs));
    }
    const F r = random_element<F>(rng);
    std::vector<PointValue<F>> points;
    for (int i = 0; i < n; ++i) {
      const F x = eval_point<F>(i);
      F beta = F::zero();
      F rp = F::one();
      for (unsigned j = 0; j < m; ++j) {
        rp = rp * r;
        beta = beta + rp * polys[j](x);
      }
      points.push_back({x, beta});
    }
    ++result.trials;
    if (is_degree_at_most<F>(points, t)) ++result.accepts;
  }
  return result;
}

// Lemma 5: Bit-Gen soundness — same dealer strategy, but acceptance runs
// through the production decision rule (decode_quorum: Berlekamp-Welch
// with >= n - t agreement) and t of the combination shares are
// adversarial garbage.
template <FiniteField F>
SoundnessResult bitgen_soundness_trials(int n, unsigned t, unsigned m,
                                        std::uint64_t trials,
                                        std::uint64_t seed) {
  Chacha rng(seed, 0xB17);
  SoundnessResult result;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    const auto c = soundness_detail::rooted_coefficients<F>(m, rng);
    std::vector<Polynomial<F>> polys;
    for (unsigned j = 0; j < m; ++j) {
      auto base = Polynomial<F>::random(t, rng);
      std::vector<F> coeffs(base.coeffs());
      coeffs.resize(t + 2, F::zero());
      coeffs[t + 1] = c[j];
      polys.emplace_back(std::move(coeffs));
    }
    const F r = random_element<F>(rng);
    std::vector<PointValue<F>> points;
    for (int i = 0; i < n; ++i) {
      const F x = eval_point<F>(i);
      F beta = F::zero();
      F rp = F::one();
      for (unsigned j = 0; j < m; ++j) {
        rp = rp * r;
        beta = beta + rp * polys[j](x);
      }
      // The last t players are faulty and send garbage.
      if (i >= n - static_cast<int>(t)) beta = random_element<F>(rng);
      points.push_back({x, beta});
    }
    ++result.trials;
    if (decode_quorum<F>(points, t, static_cast<std::size_t>(n) - t)) {
      ++result.accepts;
    }
  }
  return result;
}

}  // namespace dprbg
