// Berlekamp-Welch decoding [5] (US Patent 4,633,470), the error-correcting
// interpolation used by Bit-Gen (Fig. 4, step 5) and Coin-Expose (Fig. 6,
// step 2): given points of which at most `max_errors` are corrupted,
// recover the unique polynomial of degree <= max_degree through the rest.
//
// Method: find a nonzero "error locator" E(x) of degree <= e and a
// polynomial Q(x) of degree <= e + d such that for every received point
// (x_i, y_i):  y_i * E(x_i) = Q(x_i). Any solution of this linear system
// satisfies Q = f * E for the true codeword polynomial f, so f = Q / E.
// Decoding succeeds whenever points.size() >= d + 2e + 1.

#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "common/metrics.h"
#include "gf/field_concept.h"
#include "poly/interpolate.h"
#include "poly/linalg.h"
#include "poly/polynomial.h"

namespace dprbg {

namespace bw_detail {

// The key-equation solve: scans e' from max_errors down, returning the
// first Q/E of degree <= max_degree that disagrees with at most
// max_errors points. Uncounted; callers charge the interpolation.
template <FiniteField F>
std::optional<Polynomial<F>> solve_key_equation(
    std::span<const PointValue<F>> points, unsigned max_degree,
    unsigned max_errors) {
  const std::size_t n = points.size();
  // Try decreasing error counts: the key equation with e' < actual number
  // of errors is unsolvable, while e' > actual may produce spurious
  // solutions with E not dividing Q; scanning e from max down and
  // verifying the division handles both.
  for (unsigned e = max_errors;; --e) {
    // Unknowns: E_0..E_{e-1} (E is monic of degree e) and Q_0..Q_{e+d}.
    const std::size_t num_e = e;
    const std::size_t num_q = e + max_degree + 1;
    Matrix<F> a(n, num_e + num_q);
    std::vector<F> b(n, F::zero());
    for (std::size_t i = 0; i < n; ++i) {
      const F x = points[i].x;
      const F y = points[i].y;
      // y * (x^e + sum_j E_j x^j) - sum_j Q_j x^j = 0
      F xp = F::one();
      for (std::size_t j = 0; j < num_e; ++j) {
        a.at(i, j) = y * xp;
        xp = xp * x;
      }
      b[i] = F::zero() - y * xp;  // -(y * x^e)
      xp = F::one();
      for (std::size_t j = 0; j < num_q; ++j) {
        a.at(i, num_e + j) = F::zero() - xp;
        xp = xp * x;
      }
    }
    if (auto sol = solve_linear<F>(std::move(a), std::move(b))) {
      std::vector<F> e_coeffs(sol->begin(), sol->begin() + num_e);
      e_coeffs.push_back(F::one());  // monic
      std::vector<F> q_coeffs(sol->begin() + num_e, sol->end());
      const Polynomial<F> ep{std::move(e_coeffs)};
      const Polynomial<F> qp{std::move(q_coeffs)};
      auto [quot, rem] = qp.divmod(ep);
      if (rem.is_zero() && quot.degree() <= static_cast<int>(max_degree)) {
        // Confirm the decoded polynomial disagrees with at most
        // max_errors points (guards against spurious solutions).
        unsigned disagreements = 0;
        for (const auto& pv : points) {
          if (quot(pv.x) != pv.y) ++disagreements;
        }
        if (disagreements <= max_errors) return quot;
      }
    }
    if (e == 0) break;
  }
  return std::nullopt;
}

// Berlekamp-Welch by Gaussian elimination alone, with no interpolation
// shortcut: the reference the decoder's fast path is tested against.
// Counted as one interpolation.
template <FiniteField F>
std::optional<Polynomial<F>> eliminate(std::span<const PointValue<F>> points,
                                       unsigned max_degree,
                                       unsigned max_errors) {
  if (points.size() < static_cast<std::size_t>(max_degree) + 1) {
    return std::nullopt;
  }
  count_interpolation();
  return solve_key_equation<F>(points, max_degree, max_errors);
}

}  // namespace bw_detail

// Decodes a polynomial of degree <= max_degree from points with at most
// max_errors corruptions. Returns nullopt when no such polynomial exists
// (e.g. more corruption than the distance allows, or a cheating dealer's
// over-degree sharing). Counted as one interpolation in the metrics on
// every path, matching the paper's treatment of Berlekamp-Welch decoding
// as "a single polynomial interpolation".
//
// Interpolation first: when points.size() >= d + 2e + 1, any two
// polynomials of degree <= d within distance e of the points agree on
// >= d + 1 of them and are equal. So the polynomial through the first
// d + 1 points, if it disagrees with at most e of the rest, is THE
// answer elimination would return. Only a word with errors among those
// first d + 1 points (or no codeword at all) pays for the linear solve.
template <FiniteField F>
std::optional<Polynomial<F>> berlekamp_welch(
    std::span<const PointValue<F>> points, unsigned max_degree,
    unsigned max_errors) {
  const std::size_t n = points.size();
  const std::size_t head = static_cast<std::size_t>(max_degree) + 1;
  if (n < head) return std::nullopt;
  if (n < head + 2 * static_cast<std::size_t>(max_errors)) {
    return bw_detail::eliminate<F>(points, max_degree, max_errors);
  }
  Polynomial<F> candidate = lagrange_interpolate<F>(points.first(head));
  unsigned disagreements = 0;
  for (std::size_t i = head; i < n && disagreements <= max_errors; ++i) {
    if (candidate(points[i].x) != points[i].y) ++disagreements;
  }
  if (disagreements <= max_errors) return candidate;
  // With no errors allowed, only the candidate could have fit.
  if (max_errors == 0) return std::nullopt;
  // The interpolation above is this decode's one counted interpolation.
  return bw_detail::solve_key_equation<F>(points, max_degree, max_errors);
}

// The acceptance rule of every dealing round (Figs. 2-4) and baseline:
// the polynomial of degree <= `degree` that agrees with at least `need`
// of the P points, or nullopt when fewer than `need` points arrived or
// none fits. Berlekamp-Welch runs with max_errors = min(P - need,
// floor((P - degree - 1) / 2)): the first term is the quorum itself,
// since the decoder returns only a polynomial within max_errors of the
// points, and the second keeps that polynomial unique. One counted
// interpolation whenever P >= need and P >= degree + 1.
template <FiniteField F>
std::optional<Polynomial<F>> decode_quorum(
    std::span<const PointValue<F>> points, unsigned degree,
    std::size_t need) {
  const std::size_t p = points.size();
  if (p < need) return std::nullopt;
  const std::size_t cap = p > degree ? (p - degree - 1) / 2 : 0;
  return berlekamp_welch<F>(points, degree,
                            static_cast<unsigned>(std::min(p - need, cap)));
}

}  // namespace dprbg
