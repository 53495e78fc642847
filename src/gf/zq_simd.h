// Batch (vector) kernels over Z_q for contiguous uint32 arrays, with
// runtime CPU dispatch: an AVX2 implementation where the host supports it
// and a portable scalar fallback everywhere else.
//
// Contracts (every kernel, both implementations):
//  * inputs are canonical residues in [0, q); outputs are canonical too,
//  * q is prime and q < 2^31 (the same overflow headroom Zq::add needs),
//  * the AVX2 and scalar paths produce bit-for-bit identical outputs —
//    canonical residues are unique, and both reduce with the same Barrett
//    reciprocal floor((2^64-1)/q) — so dispatch never changes results,
//  * dst may alias a or b (each element is loaded before it is stored),
//    but must not partially overlap them,
//  * length 0 is a no-op; unaligned pointers and odd lengths are fine
//    (the vector body uses unaligned loads and a scalar tail).
//
// Dispatch: `active_kernels()` picks AVX2 when the CPU reports it, unless
// forced scalar by the DPRBG_FORCE_SCALAR environment variable (any value
// but "0"). `select_kernels(allow_simd)` is the pure chooser for
// tests that must exercise both paths in one process.
//
// Telemetry: the Zq-taking wrappers below publish field_kernel_* counters
// and a block-length histogram when telemetry is enabled (zero registry
// mutations otherwise, matching common/telemetry.h).

#pragma once

#include <cstddef>
#include <cstdint>

#include "gf/zq.h"

namespace dprbg::simd {

// Raw kernel table. All functions take explicit q (and the Barrett
// reciprocal where reduction is needed) so the inner loops carry no
// object state.
struct ZqKernels {
  const char* name;  // "scalar" or "avx2"
  // dst[i] = (a[i] + b[i]) mod q
  void (*add)(const std::uint32_t* a, const std::uint32_t* b,
              std::uint32_t* dst, std::size_t n, std::uint32_t q);
  // dst[i] = (a[i] - b[i]) mod q
  void (*sub)(const std::uint32_t* a, const std::uint32_t* b,
              std::uint32_t* dst, std::size_t n, std::uint32_t q);
  // dst[i] = (a[i] * b[i]) mod q
  void (*mul)(const std::uint32_t* a, const std::uint32_t* b,
              std::uint32_t* dst, std::size_t n, std::uint32_t q,
              std::uint64_t barrett);
  // dst[i] = (a[i] * s) mod q
  void (*scale)(const std::uint32_t* a, std::uint32_t s, std::uint32_t* dst,
                std::size_t n, std::uint32_t q, std::uint64_t barrett);
  // acc[i] = (acc[i] + x[i] * s) mod q
  void (*axpy)(std::uint32_t* acc, const std::uint32_t* x, std::uint32_t s,
               std::size_t n, std::uint32_t q, std::uint64_t barrett);
  // One NTT stage over n butterfly pairs:
  //   v = hi[i] * tw[i];  hi[i] = lo[i] - v;  lo[i] = lo[i] + v   (mod q)
  void (*butterfly)(std::uint32_t* lo, std::uint32_t* hi,
                    const std::uint32_t* tw, std::size_t n, std::uint32_t q,
                    std::uint64_t barrett);
};

const ZqKernels& scalar_kernels();
// Valid to call only when avx2_supported(); scalar otherwise.
const ZqKernels& avx2_kernels();

[[nodiscard]] bool avx2_supported();
// True iff the hardware PCLMUL path for GF(2^m) is usable (see gf2.h).
[[nodiscard]] bool pclmul_supported();
// The DPRBG_FORCE_SCALAR environment variable is set to anything but "0".
[[nodiscard]] bool force_scalar();
// Pure chooser: AVX2 table iff allow_simd and the CPU supports it.
const ZqKernels& select_kernels(bool allow_simd);
// The process-wide table: select_kernels(!force_scalar()), decided once.
const ZqKernels& active_kernels();
// active_kernels().name — for bench/status output.
[[nodiscard]] const char* dispatch_name();

// Telemetry-wrapped convenience entry points over a Zq instance. These
// are what the NTT / blocked-combination layers call.
void zq_add(const Zq& zq, const std::uint32_t* a, const std::uint32_t* b,
            std::uint32_t* dst, std::size_t n);
void zq_sub(const Zq& zq, const std::uint32_t* a, const std::uint32_t* b,
            std::uint32_t* dst, std::size_t n);
void zq_mul(const Zq& zq, const std::uint32_t* a, const std::uint32_t* b,
            std::uint32_t* dst, std::size_t n);
void zq_scale(const Zq& zq, const std::uint32_t* a, std::uint32_t s,
              std::uint32_t* dst, std::size_t n);
void zq_axpy(const Zq& zq, std::uint32_t* acc, const std::uint32_t* x,
             std::uint32_t s, std::size_t n);
void zq_butterfly(const Zq& zq, std::uint32_t* lo, std::uint32_t* hi,
                  const std::uint32_t* tw, std::size_t n);

// Batched building blocks (orchestrated on top of the dispatched mul
// kernel, so they inherit the SIMD path automatically).
//
// dst[i] = a[i]^e mod q, square-and-multiply across the whole vector.
void zq_pow_block(const Zq& zq, const std::uint32_t* a, std::uint64_t e,
                  std::uint32_t* dst, std::size_t n);
// In-place vals[i] <- vals[i]^{-1} via Montgomery's trick: one Zq::inv
// plus ~3n multiplications. Every entry must be nonzero.
void zq_inv_block(const Zq& zq, std::uint32_t* vals, std::size_t n);
// dst[i] = r^{i+1} mod q (the Horner power series batch_combine walks).
void zq_power_series(const Zq& zq, std::uint32_t r, std::uint32_t* dst,
                     std::size_t n);

}  // namespace dprbg::simd
