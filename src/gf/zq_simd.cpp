#include "gf/zq_simd.h"

#include <cstdlib>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/telemetry.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DPRBG_X86 1
#endif

namespace dprbg::simd {

namespace {

// ---------------------------------------------------------------------
// Scalar reference kernels. The reduction is the same Barrett step as
// Zq::reduce (same reciprocal, same conditional subtract), so these are
// the canonical semantics the AVX2 path must reproduce bit-for-bit.

inline std::uint32_t reduce1(std::uint64_t p, std::uint32_t q,
                             std::uint64_t barrett) {
#ifdef __SIZEOF_INT128__
  const std::uint64_t q_hat = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(p) * barrett) >> 64);
  std::uint64_t r = p - q_hat * q;
  if (r >= q) r -= q;
  return static_cast<std::uint32_t>(r);
#else
  (void)barrett;
  return static_cast<std::uint32_t>(p % q);
#endif
}

void add_scalar(const std::uint32_t* a, const std::uint32_t* b,
                std::uint32_t* dst, std::size_t n, std::uint32_t q) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t s = a[i] + b[i];
    dst[i] = s >= q ? s - q : s;
  }
}

void sub_scalar(const std::uint32_t* a, const std::uint32_t* b,
                std::uint32_t* dst, std::size_t n, std::uint32_t q) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = a[i] >= b[i] ? a[i] - b[i] : a[i] + q - b[i];
  }
}

void mul_scalar(const std::uint32_t* a, const std::uint32_t* b,
                std::uint32_t* dst, std::size_t n, std::uint32_t q,
                std::uint64_t barrett) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = reduce1(std::uint64_t{a[i]} * b[i], q, barrett);
  }
}

void scale_scalar(const std::uint32_t* a, std::uint32_t s, std::uint32_t* dst,
                  std::size_t n, std::uint32_t q, std::uint64_t barrett) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = reduce1(std::uint64_t{a[i]} * s, q, barrett);
  }
}

void axpy_scalar(std::uint32_t* acc, const std::uint32_t* x, std::uint32_t s,
                 std::size_t n, std::uint32_t q, std::uint64_t barrett) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t p = reduce1(std::uint64_t{x[i]} * s, q, barrett);
    const std::uint32_t sum = acc[i] + p;
    acc[i] = sum >= q ? sum - q : sum;
  }
}

void butterfly_scalar(std::uint32_t* lo, std::uint32_t* hi,
                      const std::uint32_t* tw, std::size_t n, std::uint32_t q,
                      std::uint64_t barrett) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t u = lo[i];
    const std::uint32_t v = reduce1(std::uint64_t{hi[i]} * tw[i], q, barrett);
    const std::uint32_t s = u + v;
    lo[i] = s >= q ? s - q : s;
    hi[i] = u >= v ? u - v : u + q - v;
  }
}

constexpr ZqKernels kScalar = {
    "scalar",    add_scalar,  sub_scalar,
    mul_scalar,  scale_scalar, axpy_scalar,
    butterfly_scalar,
};

#ifdef DPRBG_X86

// ---------------------------------------------------------------------
// AVX2 kernels: 8 lanes of u32 per iteration. 32x32 products land in
// 64-bit lanes via the even/odd _mm256_mul_epu32 split; the Barrett step
// computes mulhi64(p, reciprocal) exactly with 32-bit limb schoolbook
// (4 partial products), so q_hat — and therefore the canonical residue —
// matches the scalar path for every input.

// p mod q over 4 u64 lanes (p < 2^64, q < 2^31); result in the low 32
// bits of each lane, high bits zero.
__attribute__((target("avx2"))) inline __m256i barrett4(
    __m256i p, __m256i vq64, std::uint64_t m0, std::uint64_t m1) {
  const __m256i mask32 = _mm256_set1_epi64x(0xffffffffll);
  const __m256i vm0 = _mm256_set1_epi64x(static_cast<long long>(m0));
  const __m256i vm1 = _mm256_set1_epi64x(static_cast<long long>(m1));
  const __m256i p0 = _mm256_and_si256(p, mask32);
  const __m256i p1 = _mm256_srli_epi64(p, 32);
  // mulhi64(p, m) with m = m1*2^32 + m0:
  //   t = (p0*m0) >> 32; u = p1*m0 + t; v = p0*m1 + (u & mask32);
  //   hi = p1*m1 + (u >> 32) + (v >> 32)          (no 64-bit overflow)
  const __m256i t = _mm256_srli_epi64(_mm256_mul_epu32(p0, vm0), 32);
  const __m256i u = _mm256_add_epi64(_mm256_mul_epu32(p1, vm0), t);
  const __m256i v = _mm256_add_epi64(_mm256_mul_epu32(p0, vm1),
                                     _mm256_and_si256(u, mask32));
  const __m256i q_hat = _mm256_add_epi64(
      _mm256_mul_epu32(p1, vm1),
      _mm256_add_epi64(_mm256_srli_epi64(u, 32), _mm256_srli_epi64(v, 32)));
  // q_hat * q mod 2^64 (q fits 32 bits; q_hat may not).
  const __m256i prod_lo = _mm256_mul_epu32(q_hat, vq64);
  const __m256i prod_hi =
      _mm256_slli_epi64(_mm256_mul_epu32(_mm256_srli_epi64(q_hat, 32), vq64),
                        32);
  __m256i r = _mm256_sub_epi64(p, _mm256_add_epi64(prod_lo, prod_hi));
  // r < 2q < 2^32: one conditional subtract, signed 64-bit compare is
  // safe because both operands are < 2^33.
  const __m256i lt = _mm256_cmpgt_epi64(vq64, r);  // q > r
  r = _mm256_sub_epi64(r, _mm256_andnot_si256(lt, vq64));
  return r;
}

// (a*b) mod q over 8 u32 lanes.
__attribute__((target("avx2"))) inline __m256i mul8(
    __m256i va, __m256i vb, __m256i vq64, std::uint64_t m0,
    std::uint64_t m1) {
  const __m256i pe = _mm256_mul_epu32(va, vb);
  const __m256i po = _mm256_mul_epu32(_mm256_srli_epi64(va, 32),
                                      _mm256_srli_epi64(vb, 32));
  const __m256i re = barrett4(pe, vq64, m0, m1);
  const __m256i ro = barrett4(po, vq64, m0, m1);
  return _mm256_or_si256(re, _mm256_slli_epi64(ro, 32));
}

// (a+b) mod q over 8 u32 lanes (a, b < q so the raw sum fits u32).
__attribute__((target("avx2"))) inline __m256i add8(__m256i va, __m256i vb,
                                                    __m256i vq32) {
  const __m256i s = _mm256_add_epi32(va, vb);
  // s >= q  <=>  max_epu32(s, q) == s
  const __m256i ge = _mm256_cmpeq_epi32(_mm256_max_epu32(s, vq32), s);
  return _mm256_sub_epi32(s, _mm256_and_si256(ge, vq32));
}

// (a-b) mod q over 8 u32 lanes. a, b < q < 2^31 so signed compare works.
__attribute__((target("avx2"))) inline __m256i sub8(__m256i va, __m256i vb,
                                                    __m256i vq32) {
  const __m256i borrow = _mm256_cmpgt_epi32(vb, va);
  return _mm256_sub_epi32(_mm256_add_epi32(va, _mm256_and_si256(borrow, vq32)),
                          vb);
}

__attribute__((target("avx2"))) void add_avx2(const std::uint32_t* a,
                                              const std::uint32_t* b,
                                              std::uint32_t* dst,
                                              std::size_t n, std::uint32_t q) {
  const __m256i vq32 = _mm256_set1_epi32(static_cast<int>(q));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        add8(va, vb, vq32));
  }
  add_scalar(a + i, b + i, dst + i, n - i, q);
}

__attribute__((target("avx2"))) void sub_avx2(const std::uint32_t* a,
                                              const std::uint32_t* b,
                                              std::uint32_t* dst,
                                              std::size_t n, std::uint32_t q) {
  const __m256i vq32 = _mm256_set1_epi32(static_cast<int>(q));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        sub8(va, vb, vq32));
  }
  sub_scalar(a + i, b + i, dst + i, n - i, q);
}

__attribute__((target("avx2"))) void mul_avx2(const std::uint32_t* a,
                                              const std::uint32_t* b,
                                              std::uint32_t* dst,
                                              std::size_t n, std::uint32_t q,
                                              std::uint64_t barrett) {
  const __m256i vq64 = _mm256_set1_epi64x(static_cast<long long>(q));
  const std::uint64_t m0 = barrett & 0xffffffffull;
  const std::uint64_t m1 = barrett >> 32;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        mul8(va, vb, vq64, m0, m1));
  }
  mul_scalar(a + i, b + i, dst + i, n - i, q, barrett);
}

__attribute__((target("avx2"))) void scale_avx2(const std::uint32_t* a,
                                                std::uint32_t s,
                                                std::uint32_t* dst,
                                                std::size_t n, std::uint32_t q,
                                                std::uint64_t barrett) {
  const __m256i vq64 = _mm256_set1_epi64x(static_cast<long long>(q));
  const __m256i vs = _mm256_set1_epi32(static_cast<int>(s));
  const std::uint64_t m0 = barrett & 0xffffffffull;
  const std::uint64_t m1 = barrett >> 32;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        mul8(va, vs, vq64, m0, m1));
  }
  scale_scalar(a + i, s, dst + i, n - i, q, barrett);
}

__attribute__((target("avx2"))) void axpy_avx2(std::uint32_t* acc,
                                               const std::uint32_t* x,
                                               std::uint32_t s, std::size_t n,
                                               std::uint32_t q,
                                               std::uint64_t barrett) {
  const __m256i vq64 = _mm256_set1_epi64x(static_cast<long long>(q));
  const __m256i vq32 = _mm256_set1_epi32(static_cast<int>(q));
  const __m256i vs = _mm256_set1_epi32(static_cast<int>(s));
  const std::uint64_t m0 = barrett & 0xffffffffull;
  const std::uint64_t m1 = barrett >> 32;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i p = mul8(vx, vs, vq64, m0, m1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        add8(va, p, vq32));
  }
  axpy_scalar(acc + i, x + i, s, n - i, q, barrett);
}

__attribute__((target("avx2"))) void butterfly_avx2(
    std::uint32_t* lo, std::uint32_t* hi, const std::uint32_t* tw,
    std::size_t n, std::uint32_t q, std::uint64_t barrett) {
  const __m256i vq64 = _mm256_set1_epi64x(static_cast<long long>(q));
  const __m256i vq32 = _mm256_set1_epi32(static_cast<int>(q));
  const std::uint64_t m0 = barrett & 0xffffffffull;
  const std::uint64_t m1 = barrett >> 32;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vh =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hi + i));
    const __m256i vt =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tw + i));
    const __m256i vu =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lo + i));
    const __m256i v = mul8(vh, vt, vq64, m0, m1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lo + i),
                        add8(vu, v, vq32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(hi + i),
                        sub8(vu, v, vq32));
  }
  butterfly_scalar(lo + i, hi + i, tw + i, n - i, q, barrett);
}

constexpr ZqKernels kAvx2 = {
    "avx2",    add_avx2,   sub_avx2,
    mul_avx2,  scale_avx2, axpy_avx2,
    butterfly_avx2,
};

#endif  // DPRBG_X86

// ---------------------------------------------------------------------
// Telemetry plumbing: per-op counters, bound lazily and only when
// telemetry is enabled (one relaxed load on the disabled path).

void tel_block(const char* op, std::size_t n) {
  if (!telemetry_enabled()) return;
  MetricsRegistry& reg = metrics();
  const std::string labels =
      std::string("op=") + op + " mode=" + dispatch_name();
  reg.counter("field_kernel_elems_total", labels).add(n);
  reg.histogram("field_kernel_block_len", std::string("op=") + op)
      .observe(n);
}

}  // namespace

const ZqKernels& scalar_kernels() { return kScalar; }

const ZqKernels& avx2_kernels() {
#ifdef DPRBG_X86
  return kAvx2;
#else
  return kScalar;
#endif
}

bool avx2_supported() {
#ifdef DPRBG_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool pclmul_supported() {
#ifdef DPRBG_X86
  return __builtin_cpu_supports("pclmul") != 0 &&
         __builtin_cpu_supports("sse4.1") != 0;
#else
  return false;
#endif
}

bool force_scalar() {
  static const bool forced = [] {
    const char* e = std::getenv("DPRBG_FORCE_SCALAR");
    return e != nullptr && e[0] != '\0' && !(e[0] == '0' && e[1] == '\0');
  }();
  return forced;
}

const ZqKernels& select_kernels(bool allow_simd) {
  if (allow_simd && avx2_supported()) return avx2_kernels();
  return scalar_kernels();
}

const ZqKernels& active_kernels() {
  static const ZqKernels& k = select_kernels(!force_scalar());
  return k;
}

const char* dispatch_name() { return active_kernels().name; }

void zq_add(const Zq& zq, const std::uint32_t* a, const std::uint32_t* b,
            std::uint32_t* dst, std::size_t n) {
  tel_block("add", n);
  active_kernels().add(a, b, dst, n, zq.q());
}

void zq_sub(const Zq& zq, const std::uint32_t* a, const std::uint32_t* b,
            std::uint32_t* dst, std::size_t n) {
  tel_block("sub", n);
  active_kernels().sub(a, b, dst, n, zq.q());
}

void zq_mul(const Zq& zq, const std::uint32_t* a, const std::uint32_t* b,
            std::uint32_t* dst, std::size_t n) {
  tel_block("mul", n);
  active_kernels().mul(a, b, dst, n, zq.q(), zq.barrett());
}

void zq_scale(const Zq& zq, const std::uint32_t* a, std::uint32_t s,
              std::uint32_t* dst, std::size_t n) {
  tel_block("scale", n);
  active_kernels().scale(a, s, dst, n, zq.q(), zq.barrett());
}

void zq_axpy(const Zq& zq, std::uint32_t* acc, const std::uint32_t* x,
             std::uint32_t s, std::size_t n) {
  tel_block("axpy", n);
  active_kernels().axpy(acc, x, s, n, zq.q(), zq.barrett());
}

void zq_butterfly(const Zq& zq, std::uint32_t* lo, std::uint32_t* hi,
                  const std::uint32_t* tw, std::size_t n) {
  tel_block("butterfly", n);
  active_kernels().butterfly(lo, hi, tw, n, zq.q(), zq.barrett());
}

void zq_pow_block(const Zq& zq, const std::uint32_t* a, std::uint64_t e,
                  std::uint32_t* dst, std::size_t n) {
  tel_block("pow", n);
  const ZqKernels& k = active_kernels();
  const std::uint32_t q = zq.q();
  const std::uint64_t m = zq.barrett();
  // dst = 1; base = a; square-and-multiply over the whole vector. The
  // base is squared in a scratch that reuses dst's tail... keep it
  // simple: a thread_local scratch sized to n.
  thread_local std::vector<std::uint32_t> base;
  base.assign(a, a + n);
  for (std::size_t i = 0; i < n; ++i) dst[i] = 1 % q;
  while (e != 0) {
    if (e & 1u) k.mul(dst, base.data(), dst, n, q, m);
    e >>= 1;
    if (e != 0) k.mul(base.data(), base.data(), base.data(), n, q, m);
  }
}

void zq_inv_block(const Zq& zq, std::uint32_t* vals, std::size_t n) {
  if (n == 0) return;
  tel_block("inv", n);
  const ZqKernels& k = active_kernels();
  const std::uint32_t q = zq.q();
  const std::uint64_t m = zq.barrett();
  // Montgomery's trick: prefix products, one scalar inversion, backward
  // sweep. The sweeps are inherently sequential, so this building block
  // gains from the shared Barrett reduce rather than from lane
  // parallelism; it exists so callers have one audited batch-inverse.
  thread_local std::vector<std::uint32_t> prefix;
  prefix.resize(n);
  std::uint32_t acc = 1 % q;
  for (std::size_t i = 0; i < n; ++i) {
    DPRBG_CHECK(vals[i] != 0);
    prefix[i] = acc;
    acc = reduce1(std::uint64_t{acc} * vals[i], q, m);
  }
  std::uint32_t inv_acc = zq.inv(acc);
  for (std::size_t i = n; i-- > 0;) {
    const std::uint32_t v = vals[i];
    vals[i] = reduce1(std::uint64_t{inv_acc} * prefix[i], q, m);
    inv_acc = reduce1(std::uint64_t{inv_acc} * v, q, m);
  }
  (void)k;
}

void zq_power_series(const Zq& zq, std::uint32_t r, std::uint32_t* dst,
                     std::size_t n) {
  if (n == 0) return;
  tel_block("power_series", n);
  const std::uint32_t q = zq.q();
  const std::uint64_t m = zq.barrett();
  std::uint32_t acc = r % q;
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = acc;
    acc = reduce1(std::uint64_t{acc} * r, q, m);
  }
}

}  // namespace dprbg::simd
