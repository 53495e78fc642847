// ChaCha20-based deterministic CSPRNG.
//
// The paper's model gives every player "a source of perfectly random
// bits", and Section 1.1 notes players may realize it with a local
// cryptographic pseudo-random generator. We use the ChaCha20 block
// function (Bernstein 2008) in counter mode: cryptographic quality,
// trivially seekable, and — crucially for a reproduction — fully
// deterministic under a fixed seed, so every experiment in this repo can
// be replayed bit-for-bit.
//
// Each refill computes kBlocks consecutive counter blocks at once, laid
// out in counter order, so the stream is word-for-word the one-block-at-
// a-time stream (tests/golden_test.cpp pins literal words across the
// block and refill boundaries).

#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "gf/field_concept.h"

namespace dprbg {

class Chacha {
 public:
  // Seeds the generator. `stream` separates independent generators drawn
  // from the same seed (e.g. one per player).
  explicit Chacha(std::uint64_t seed, std::uint64_t stream = 0) noexcept;

  std::uint32_t next_u32() noexcept;
  std::uint64_t next_u64() noexcept;
  // Uniform in [0, bound) via rejection sampling (bound > 0).
  std::uint64_t uniform(std::uint64_t bound) noexcept;
  void fill_bytes(std::span<std::uint8_t> out) noexcept;

  // UniformRandomBitGenerator interface, so <random> utilities work too.
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() noexcept { return next_u64(); }

 private:
  static constexpr unsigned kBlocks = 4;
  static constexpr unsigned kWords = 16 * kBlocks;

  void refill() noexcept;

  // Words 12-13 hold the counter of the next block to compute.
  std::array<std::uint32_t, 16> state_{};
  std::array<std::uint32_t, kWords> buf_{};  // kBlocks blocks, in order
  unsigned pos_ = kWords;  // next word in buf_; kWords = empty
};

// Uniform field element (all bit patterns of GF(2^m) are valid elements).
template <FiniteField F>
F random_element(Chacha& rng) {
  return F::from_uint(rng.next_u64());
}

// Uniform *nonzero* field element.
template <FiniteField F>
F random_nonzero(Chacha& rng) {
  while (true) {
    F e = random_element<F>(rng);
    if (!e.is_zero()) return e;
  }
}

}  // namespace dprbg
