#include "gf/gf2_clmul.h"

#include <cstdlib>

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

#ifdef DPRBG_X86

__attribute__((target("pclmul,sse4.1"))) std::uint64_t clmul_hw_mul(
    std::uint64_t a, std::uint64_t b, unsigned m, std::uint64_t mod) {
  const __m128i pa = _mm_cvtsi64_si128(static_cast<long long>(a));
  const __m128i pb = _mm_cvtsi64_si128(static_cast<long long>(b));
  const __m128i p = _mm_clmulepi64_si128(pa, pb, 0x00);
  std::uint64_t lo = static_cast<std::uint64_t>(_mm_cvtsi128_si64(p));
  std::uint64_t hi =
      static_cast<std::uint64_t>(_mm_extract_epi64(p, 1));
  const std::uint64_t mask =
      m == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << m) - 1);
  const __m128i pm = _mm_cvtsi64_si128(static_cast<long long>(mod));
  // Fold the overflow T = p >> m back in via x^m ≡ mod (mod f):
  // p ≡ (p mod x^m) ⊕ T*mod. The product has < 2m <= 128 bits, so T
  // always fits one 64-bit limb; each fold shrinks the overflow by
  // ~(m - deg mod) bits and the loop terminates in <= 3 passes.
  for (;;) {
    const std::uint64_t t =
        m == 64 ? hi : ((lo >> m) | (hi << (64 - m)));
    if (t == 0) break;
    hi = 0;
    lo &= mask;
    const __m128i f = _mm_clmulepi64_si128(
        _mm_cvtsi64_si128(static_cast<long long>(t)), pm, 0x00);
    lo ^= static_cast<std::uint64_t>(_mm_cvtsi128_si64(f));
    hi ^= static_cast<std::uint64_t>(_mm_extract_epi64(f, 1));
  }
  return lo & mask;
}

#else

std::uint64_t clmul_hw_mul(std::uint64_t, std::uint64_t, unsigned,
                           std::uint64_t) {
  return 0;  // unreachable: clmul_hw_probe() is false off x86
}

#endif

}  // namespace dprbg::gf2_detail
