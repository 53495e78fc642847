// Dense univariate polynomials over a FiniteField.
//
// Coefficients are stored low-degree-first with no trailing zeros, so the
// zero polynomial is the empty vector and degree() of a nonzero polynomial
// is coeffs().size() - 1. The protocols only ever need degree-t secret
// polynomials (t < n <= 64), so all operations are simple dense loops.

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "gf/field_concept.h"
#include "rng/chacha.h"

namespace dprbg {

template <FiniteField F>
class Polynomial {
 public:
  Polynomial() = default;
  explicit Polynomial(std::vector<F> coeffs) : coeffs_(std::move(coeffs)) {
    trim();
  }
  static Polynomial constant(F c) { return Polynomial{{c}}; }

  // Uniformly random polynomial of degree <= deg (exactly `deg + 1` random
  // coefficients). This is the dealer's sharing polynomial: the secret is
  // the constant term f(0).
  static Polynomial random(unsigned deg, Chacha& rng) {
    std::vector<F> c(deg + 1);
    for (auto& x : c) x = random_element<F>(rng);
    return Polynomial{std::move(c)};
  }
  // Random polynomial of degree <= deg with a prescribed secret f(0).
  static Polynomial random_with_secret(F secret, unsigned deg, Chacha& rng) {
    Polynomial p = random(deg, rng);
    if (p.coeffs_.empty()) p.coeffs_.resize(1);
    p.coeffs_[0] = secret;
    p.trim();
    return p;
  }

  [[nodiscard]] bool is_zero() const { return coeffs_.empty(); }
  // Degree of the zero polynomial is reported as -1.
  [[nodiscard]] int degree() const {
    return static_cast<int>(coeffs_.size()) - 1;
  }
  [[nodiscard]] const std::vector<F>& coeffs() const { return coeffs_; }
  [[nodiscard]] F coeff(std::size_t i) const {
    if (i >= coeffs_.size()) return F::zero();
    return coeffs_[i];
  }

  // Horner evaluation, starting from the top coefficient: deg(f)
  // multiplications and additions.
  [[nodiscard]] F operator()(F x) const {
    if (coeffs_.empty()) return F::zero();
    F acc = coeffs_.back();
    for (std::size_t i = coeffs_.size() - 1; i-- > 0;) {
      acc = acc * x + coeffs_[i];
    }
    return acc;
  }

  friend Polynomial operator+(const Polynomial& a, const Polynomial& b) {
    std::vector<F> c(std::max(a.coeffs_.size(), b.coeffs_.size()),
                     F::zero());
    for (std::size_t i = 0; i < c.size(); ++i) {
      c[i] = a.coeff(i) + b.coeff(i);
    }
    return Polynomial{std::move(c)};
  }
  friend Polynomial operator-(const Polynomial& a, const Polynomial& b) {
    std::vector<F> c(std::max(a.coeffs_.size(), b.coeffs_.size()),
                     F::zero());
    for (std::size_t i = 0; i < c.size(); ++i) {
      c[i] = a.coeff(i) - b.coeff(i);
    }
    return Polynomial{std::move(c)};
  }
  friend Polynomial operator*(const Polynomial& a, const Polynomial& b) {
    if (a.is_zero() || b.is_zero()) return {};
    std::vector<F> c(a.coeffs_.size() + b.coeffs_.size() - 1, F::zero());
    for (std::size_t i = 0; i < a.coeffs_.size(); ++i) {
      for (std::size_t j = 0; j < b.coeffs_.size(); ++j) {
        c[i + j] = c[i + j] + a.coeffs_[i] * b.coeffs_[j];
      }
    }
    return Polynomial{std::move(c)};
  }
  friend Polynomial operator*(F s, const Polynomial& p) {
    std::vector<F> c(p.coeffs_);
    for (auto& x : c) x = s * x;
    return Polynomial{std::move(c)};
  }

  // Quotient and remainder of *this by a nonzero divisor.
  struct DivMod {
    Polynomial quotient;
    Polynomial remainder;
  };
  [[nodiscard]] DivMod divmod(const Polynomial& d) const {
    DPRBG_CHECK(!d.is_zero());
    std::vector<F> rem = coeffs_;
    std::vector<F> quot(
        coeffs_.size() >= d.coeffs_.size()
            ? coeffs_.size() - d.coeffs_.size() + 1
            : 0,
        F::zero());
    const F lead_inv = d.coeffs_.back().inv();
    for (std::size_t i = rem.size(); i-- > 0;) {
      if (i + 1 < d.coeffs_.size()) break;
      const F factor = rem[i] * lead_inv;
      if (factor.is_zero()) continue;
      const std::size_t shift = i + 1 - d.coeffs_.size();
      quot[shift] = factor;
      for (std::size_t j = 0; j < d.coeffs_.size(); ++j) {
        rem[shift + j] = rem[shift + j] - factor * d.coeffs_[j];
      }
    }
    return {Polynomial{std::move(quot)}, Polynomial{std::move(rem)}};
  }

  friend bool operator==(const Polynomial& a, const Polynomial& b) {
    return a.coeffs_ == b.coeffs_;
  }

 private:
  void trim() {
    while (!coeffs_.empty() && coeffs_.back().is_zero()) coeffs_.pop_back();
  }

  std::vector<F> coeffs_;
};

// A batch of m polynomials of degree <= deg, stored coefficient-major:
// row c holds coefficient c of every polynomial, so column j is
// polynomial j. A dealer's M sharing polynomials live in one flat
// (deg+1) x m buffer instead of M heap vectors, and evaluating them all
// at one point is a branch-free sweep over contiguous rows.
template <FiniteField F>
class CoeffMatrix {
 public:
  CoeffMatrix() = default;
  // The zero matrix: m polynomials of degree <= deg, all coefficients 0.
  CoeffMatrix(unsigned deg, std::size_t m)
      : deg_(deg), m_(m), data_((deg + 1) * m, F::zero()) {}

  // m uniformly random polynomials of degree <= deg. Coefficients are
  // drawn polynomial by polynomial, low degree first — the order of m
  // successive Polynomial::random(deg, rng) calls — so a seed deals the
  // same values either way.
  static CoeffMatrix random(unsigned deg, std::size_t m, Chacha& rng) {
    CoeffMatrix out(deg, m);
    for (std::size_t j = 0; j < m; ++j) {
      for (unsigned c = 0; c <= deg; ++c) {
        out.at(c, j) = random_element<F>(rng);
      }
    }
    return out;
  }
  // The batch holding `polys` in order; its degree is the largest among
  // them (lower-degree polynomials get zero top coefficients).
  static CoeffMatrix from_polys(std::span<const Polynomial<F>> polys) {
    int deg = 0;
    for (const auto& p : polys) deg = std::max(deg, p.degree());
    CoeffMatrix out(static_cast<unsigned>(deg), polys.size());
    for (std::size_t j = 0; j < polys.size(); ++j) {
      const auto& c = polys[j].coeffs();
      for (std::size_t k = 0; k < c.size(); ++k) out.at(k, j) = c[k];
    }
    return out;
  }

  [[nodiscard]] unsigned degree() const { return deg_; }
  // Number of polynomials (columns).
  [[nodiscard]] std::size_t size() const { return m_; }
  [[nodiscard]] F& at(unsigned c, std::size_t j) {
    return data_[c * m_ + j];
  }
  [[nodiscard]] F at(unsigned c, std::size_t j) const {
    return data_[c * m_ + j];
  }
  [[nodiscard]] std::span<F> row(unsigned c) {
    return {data_.data() + c * m_, m_};
  }
  [[nodiscard]] std::span<const F> row(unsigned c) const {
    return {data_.data() + c * m_, m_};
  }
  [[nodiscard]] Polynomial<F> poly(std::size_t j) const {
    std::vector<F> c(deg_ + 1);
    for (unsigned k = 0; k <= deg_; ++k) c[k] = at(k, j);
    return Polynomial<F>{std::move(c)};
  }

 private:
  unsigned deg_ = 0;
  std::size_t m_ = 0;
  std::vector<F> data_;
};

// Evaluate every polynomial of a batch at one point: out[j] = poly j at
// x. The dealer's distribution step evaluates all M+1 sharing
// polynomials per recipient. Horner runs row by row over the whole
// batch: out = C[deg], then out = out * x + C[c] for c = deg-1 .. 0, so
// each polynomial costs deg multiplications and deg additions — the
// same values and op counts as Polynomial::operator() on a polynomial
// of full degree (tests/block_kernels_test.cpp asserts both).
template <FiniteField F>
void eval_polys_block(const CoeffMatrix<F>& polys, F x, std::span<F> out) {
  DPRBG_CHECK(out.size() == polys.size());
  const auto top = polys.row(polys.degree());
  std::copy(top.begin(), top.end(), out.begin());
  for (unsigned c = polys.degree(); c-- > 0;) {
    const F* coeffs = polys.row(c).data();
    for (std::size_t j = 0; j < out.size(); ++j) {
      out[j] = out[j] * x + coeffs[j];
    }
  }
}

}  // namespace dprbg
