#include "rng/chacha.h"

#include <bit>
#include <cstring>

namespace dprbg {

namespace {

// Lane-major working state: word w of block j lives at x[w][j], so each
// quarter-round step is one 4-wide operation the compiler can vectorise
// with whatever the target ISA offers, from one portable loop.
constexpr unsigned kLanes = 4;
using Lanes = std::array<std::uint32_t, kLanes>;

inline void quarter_round(Lanes& a, Lanes& b, Lanes& c, Lanes& d) noexcept {
  for (unsigned j = 0; j < kLanes; ++j) {
    a[j] += b[j];
    d[j] = std::rotl(d[j] ^ a[j], 16);
    c[j] += d[j];
    b[j] = std::rotl(b[j] ^ c[j], 12);
    a[j] += b[j];
    d[j] = std::rotl(d[j] ^ a[j], 8);
    c[j] += d[j];
    b[j] = std::rotl(b[j] ^ c[j], 7);
  }
}

}  // namespace

Chacha::Chacha(std::uint64_t seed, std::uint64_t stream) noexcept {
  // "expand 32-byte k" constants.
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  // 256-bit key derived from (seed, stream) by simple expansion; the goal
  // is deterministic independence between streams, not secrecy.
  std::uint64_t x = seed;
  for (int i = 0; i < 4; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x ^ (stream * 0xbf58476d1ce4e5b9ull + i);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    state_[4 + 2 * i] = static_cast<std::uint32_t>(z);
    state_[5 + 2 * i] = static_cast<std::uint32_t>(z >> 32);
  }
  // Counter (words 12-13) starts at zero; nonce (words 14-15) = stream.
  state_[12] = 0;
  state_[13] = 0;
  state_[14] = static_cast<std::uint32_t>(stream);
  state_[15] = static_cast<std::uint32_t>(stream >> 32);
}

void Chacha::refill() noexcept {
  static_assert(kBlocks == kLanes);
  // Lane j runs counter + j; everything else is the shared state.
  std::array<Lanes, 16> init{};
  for (unsigned w = 0; w < 16; ++w) init[w].fill(state_[w]);
  const std::uint64_t counter =
      std::uint64_t{state_[12]} | (std::uint64_t{state_[13]} << 32);
  for (unsigned j = 0; j < kLanes; ++j) {
    init[12][j] = static_cast<std::uint32_t>(counter + j);
    init[13][j] = static_cast<std::uint32_t>((counter + j) >> 32);
  }
  std::array<Lanes, 16> x = init;
  for (int round = 0; round < 10; ++round) {  // 20 rounds: 10 double-rounds
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  // Transpose back to block-major: block j is words [16j, 16j + 16).
  for (unsigned w = 0; w < 16; ++w) {
    for (unsigned j = 0; j < kLanes; ++j) {
      buf_[16 * j + w] = x[w][j] + init[w][j];
    }
  }
  // 64-bit block counter.
  const std::uint64_t next = counter + kBlocks;
  state_[12] = static_cast<std::uint32_t>(next);
  state_[13] = static_cast<std::uint32_t>(next >> 32);
  pos_ = 0;
}

std::uint32_t Chacha::next_u32() noexcept {
  if (pos_ >= kWords) refill();
  return buf_[pos_++];
}

std::uint64_t Chacha::next_u64() noexcept {
  const std::uint64_t lo = next_u32();
  const std::uint64_t hi = next_u32();
  return lo | (hi << 32);
}

std::uint64_t Chacha::uniform(std::uint64_t bound) noexcept {
  // Rejection sampling: draw from the largest multiple of bound below 2^64.
  const std::uint64_t threshold = (0 - bound) % bound;  // 2^64 mod bound
  while (true) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

void Chacha::fill_bytes(std::span<std::uint8_t> out) noexcept {
  std::size_t i = 0;
  while (i < out.size()) {
    const std::uint32_t w = next_u32();
    const std::size_t take = std::min<std::size_t>(4, out.size() - i);
    std::memcpy(out.data() + i, &w, take);
    i += take;
  }
}

}  // namespace dprbg
