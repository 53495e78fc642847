// Z_q arithmetic for a small runtime prime q, the base field of the
// paper's special construction GF(q^l) (Section 2).
//
// The paper: "We can implement operations over Z_q via a table". When q is
// small enough we precompute a q*q multiplication table and a q-entry
// inverse table; otherwise we fall back to direct modular arithmetic.

#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace dprbg {

class Zq {
 public:
  // q must be prime (checked).
  explicit Zq(std::uint32_t q);

  [[nodiscard]] std::uint32_t q() const { return q_; }
  [[nodiscard]] bool tabulated() const { return !mul_table_.empty(); }
  // The Barrett reciprocal floor((2^64 - 1) / q), for loops that hoist
  // q and it out of the object (see barrett_reduce).
  [[nodiscard]] std::uint64_t barrett() const { return barrett_; }
  // Barrett reduction of p < 2^64 modulo q with m = barrett(): q_hat =
  // mulhi64(p, m) satisfies floor(p/q) - 1 <= q_hat <= floor(p/q), so
  // r = p - q_hat*q < 2q and one conditional subtract finishes — no
  // hardware divide, for every q >= 1. Static so vector loops (the NTT
  // in gf/fft_field.cpp) can keep q and m in registers: a store through
  // a uint32_t* may alias q_, which would force a reload per element.
  [[nodiscard]] static std::uint32_t barrett_reduce(std::uint64_t p,
                                                    std::uint32_t q,
                                                    std::uint64_t m) {
#ifdef __SIZEOF_INT128__
    const std::uint64_t q_hat = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(p) * m) >> 64);
    std::uint64_t r = p - q_hat * q;
    if (r >= q) r -= q;
    return static_cast<std::uint32_t>(r);
#else
    (void)m;
    return static_cast<std::uint32_t>(p % q);
#endif
  }
  [[nodiscard]] std::uint32_t reduce(std::uint64_t p) const {
    return barrett_reduce(p, q_, barrett_);
  }

  [[nodiscard]] std::uint32_t add(std::uint32_t a, std::uint32_t b) const {
    const std::uint32_t s = a + b;
    return s >= q_ ? s - q_ : s;
  }
  [[nodiscard]] std::uint32_t sub(std::uint32_t a, std::uint32_t b) const {
    return a >= b ? a - b : a + q_ - b;
  }
  [[nodiscard]] std::uint32_t neg(std::uint32_t a) const {
    return a == 0 ? 0 : q_ - a;
  }
  [[nodiscard]] std::uint32_t mul(std::uint32_t a, std::uint32_t b) const {
    if (!mul_table_.empty()) return mul_table_[std::size_t{a} * q_ + b];
    return reduce(std::uint64_t{a} * b);
  }
  [[nodiscard]] std::uint32_t inv(std::uint32_t a) const {
    DPRBG_CHECK(a != 0);
    if (!inv_table_.empty()) return inv_table_[a];
    return pow(a, q_ - 2);
  }
  [[nodiscard]] std::uint32_t pow(std::uint32_t a, std::uint64_t e) const;

  // True iff g generates the full multiplicative group Z_q^*.
  [[nodiscard]] bool is_generator(std::uint32_t g) const;
  // Some generator of Z_q^*.
  [[nodiscard]] std::uint32_t find_generator() const;
  // An element of exact multiplicative order `order` (must divide q-1).
  [[nodiscard]] std::uint32_t root_of_unity(std::uint32_t order) const;

  static bool is_prime(std::uint32_t n);

 private:
  std::uint32_t q_;
  std::uint64_t barrett_ = 0;             // floor((2^64 - 1) / q)
  std::vector<std::uint32_t> mul_table_;  // q*q entries when q <= kTableLimit
  std::vector<std::uint32_t> inv_table_;  // q entries when tabulated

  static constexpr std::uint32_t kTableLimit = 1024;
};

}  // namespace dprbg
