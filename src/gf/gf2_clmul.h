// Hardware carry-less multiplication for GF(2^m), m > 16.
//
// gf2.h's software `clmul_reduce` is a shift-and-XOR bit loop — hundreds
// of cycles per product — and GF2_64 multiplication is the single hottest
// operation of every wide-batch protocol run (Horner combinations touch
// O(n*M) of them per round). On x86 the PCLMULQDQ instruction computes
// the 128-bit carry-less product in one instruction; reduction modulo the
// low-weight field polynomial is a fixed sequence of two folds (two more
// PCLMULs), which reaches the canonical remainder whenever
// 2*deg(mod) < m — true of every tabulated m > 16 (the proof and the
// static_asserts sit next to the kernel in gf2_clmul.cpp).
//
// The result is the canonical remainder mod f = x^m + tail, bit-for-bit
// identical to clmul_reduce<M> (remainders of degree < m are unique), so
// switching paths never changes protocol outputs — tests/gf2_test.cpp
// asserts the differential.
//
// Dispatch: `clmul_hw` latches once per process — CPU support (PCLMUL +
// SSE4.1) and not the DPRBG_FORCE_SCALAR environment variable. gf2.h
// consults it on the m > 16 multiply path. The inline variable
// zero-initializes to false, so any multiplication that races static
// initialization simply takes the (correct) software path.

#pragma once

#include <cstdint>

namespace dprbg::gf2_detail {

// True iff the PCLMUL path should be used: hardware support and not
// forced scalar. Reads the environment once.
[[nodiscard]] bool clmul_hw_probe();

inline const bool clmul_hw = clmul_hw_probe();

// (a * b) mod (x^m + mod) with deg a, deg b < m, 16 < m <= 64 and
// 2*deg(mod) < m. Canonical result (degree < m), with no data-dependent
// branch. Call only when clmul_hw is true.
[[nodiscard]] std::uint64_t clmul_hw_mul(std::uint64_t a, std::uint64_t b,
                                         unsigned m, std::uint64_t mod);

}  // namespace dprbg::gf2_detail
