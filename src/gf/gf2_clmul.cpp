#include "gf/gf2_clmul.h"

#include <bit>
#include <cstdlib>

#include "gf/gf2.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DPRBG_X86 1
#endif

namespace dprbg::gf2_detail {

namespace {

// The CPU reports PCLMUL and SSE4.1.
bool pclmul_supported() {
#ifdef DPRBG_X86
  return __builtin_cpu_supports("pclmul") != 0 &&
         __builtin_cpu_supports("sse4.1") != 0;
#else
  return false;
#endif
}

// The DPRBG_FORCE_SCALAR environment variable is set to anything but "0".
bool force_scalar() {
  const char* e = std::getenv("DPRBG_FORCE_SCALAR");
  return e != nullptr && e[0] != '\0' && !(e[0] == '0' && e[1] == '\0');
}

}  // namespace

bool clmul_hw_probe() { return pclmul_supported() && !force_scalar(); }

// Two folds always reach the canonical remainder. Let d = deg(mod),
// f = x^m + mod, and p = a*b = H*x^m + L with deg L < m, so
// deg H <= m - 2. Since x^m ≡ mod (mod f):
//   fold 1: p ≡ L + H*mod, and H*mod = H1*x^m + L1 with deg L1 < m and
//           deg H1 <= d - 2;
//   fold 2: H1*x^m ≡ H1*mod, of degree <= 2d - 2 < m.
// So p mod f = L + L1 + H1*mod, every term of degree < m, whenever
// 2*deg(mod) < m. Every tabulated m > 16 meets it (d <= 7, m >= 24).
namespace {
constexpr unsigned deg(std::uint64_t poly) {
  return static_cast<unsigned>(std::bit_width(poly)) - 1;
}
}  // namespace
static_assert(2 * deg(modulus<24>()) < 24);
static_assert(2 * deg(modulus<32>()) < 32);
static_assert(2 * deg(modulus<40>()) < 40);
static_assert(2 * deg(modulus<48>()) < 48);
static_assert(2 * deg(modulus<56>()) < 56);
static_assert(2 * deg(modulus<64>()) < 64);

#ifdef DPRBG_X86

__attribute__((target("pclmul,sse4.1"))) std::uint64_t clmul_hw_mul(
    std::uint64_t a, std::uint64_t b, unsigned m, std::uint64_t mod) {
  // Everything stays in one XMM register per value. over_m(x) puts the
  // 128-bit x >> m in the low lane: (lo >> m) | (hi << (64 - m)). SSE
  // shifts by >= 64 give 0, so m = 64 needs no special case.
  const __m128i right = _mm_cvtsi32_si128(static_cast<int>(m));
  const __m128i left = _mm_cvtsi32_si128(static_cast<int>(64 - m));
  const auto over_m = [&](__m128i x) {
    return _mm_or_si128(_mm_srl_epi64(x, right),
                        _mm_srli_si128(_mm_sll_epi64(x, left), 8));
  };
  const __m128i pmod = _mm_cvtsi64_si128(static_cast<long long>(mod));
  const __m128i p = _mm_clmulepi64_si128(  // H*x^m + L
      _mm_cvtsi64_si128(static_cast<long long>(a)),
      _mm_cvtsi64_si128(static_cast<long long>(b)), 0x00);
  const __m128i q = _mm_clmulepi64_si128(over_m(p), pmod, 0x00);  // H*mod
  const __m128i r = _mm_clmulepi64_si128(over_m(q), pmod, 0x00);  // H1*mod
  const __m128i mask = _mm_srl_epi64(_mm_set1_epi32(-1), left);
  // L + L1 + H1*mod in the low lane.
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(
      _mm_xor_si128(_mm_and_si128(_mm_xor_si128(p, q), mask), r)));
}

#else

std::uint64_t clmul_hw_mul(std::uint64_t, std::uint64_t, unsigned,
                           std::uint64_t) {
  return 0;  // unreachable: clmul_hw_probe() is false off x86
}

#endif

}  // namespace dprbg::gf2_detail
