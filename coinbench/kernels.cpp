#include "kernels.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <span>
#include <vector>

#include "common/serial.h"
#include "gf/field_io.h"
#include "gf/gf2.h"
#include "poly/berlekamp_welch.h"
#include "poly/interpolate.h"
#include "poly/polynomial.h"
#include "rng/chacha.h"
#include "sharing/shamir.h"

namespace coinbench {
namespace {

using F = dprbg::GF2_64;
using Clock = std::chrono::steady_clock;

// Results are folded into this so the timed work cannot be discarded.
volatile std::uint64_t g_sink = 0;

// Median over five repetitions of the time per unit of `fn`, which does
// `units` units of work per call. Each repetition runs for >= 10 ms.
template <typename Fn>
double per_unit_ns(double units, Fn&& fn) {
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    std::uint64_t calls = 0;
    const auto t0 = Clock::now();
    auto t1 = t0;
    do {
      g_sink = g_sink + fn();
      ++calls;
      t1 = Clock::now();
    } while (t1 - t0 < std::chrono::milliseconds(10));
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    reps.push_back(ns / (static_cast<double>(calls) * units));
  }
  std::sort(reps.begin(), reps.end());
  return reps[2];
}

}  // namespace

KernelTimes replay_kernels(unsigned m, int n, unsigned t, std::uint64_t seed) {
  dprbg::Chacha rng(seed, /*stream=*/0xBE4C4ull);
  const std::size_t nn = static_cast<std::size_t>(n);
  std::vector<std::vector<F>> rows(nn, std::vector<F>(m + 1));
  for (auto& row : rows) {
    for (F& x : row) x = dprbg::random_element<F>(rng);
  }
  const F c = dprbg::random_nonzero<F>(rng);
  std::vector<F> out(m + 1);
  KernelTimes k;

  k.mul_ns = per_unit_ns(m, [&] {
    for (unsigned i = 0; i < m; ++i) out[i] = rows[0][i] * c;
    return out[m / 2].to_uint();
  });
  k.add_ns = per_unit_ns(m, [&] {
    for (unsigned i = 0; i < m; ++i) out[i] = out[i] + rows[1][i];
    return out[m / 2].to_uint();
  });

  std::vector<std::uint8_t> bytes;
  k.write_ns = per_unit_ns(m, [&] {
    dprbg::ByteWriter w(m * F::kBytes);
    for (unsigned i = 0; i < m; ++i) dprbg::write_elem(w, rows[0][i]);
    bytes = std::move(w).take();
    return std::uint64_t{bytes[bytes.size() / 2]};
  });
  k.read_ns = per_unit_ns(m, [&] {
    const auto row = dprbg::decode_elem_row<F>(bytes, m);
    return row ? (*row)[m / 2].to_uint() : 0;
  });
  k.rng_ns = per_unit_ns(m, [&] {
    std::uint64_t acc = 0;
    for (unsigned i = 0; i < m; ++i) {
      acc ^= dprbg::random_element<F>(rng).to_uint();
    }
    return acc;
  });

  std::vector<const F*> ptrs(nn);
  for (std::size_t i = 0; i < nn; ++i) ptrs[i] = rows[i].data();
  std::vector<F> betas(nn);
  k.combine_ns = per_unit_ns(static_cast<double>(nn) * (m + 1), [&] {
    dprbg::batch_combine_block<F>(ptrs, m + 1, c, betas);
    return betas[0].to_uint();
  });

  std::vector<dprbg::PointValue<F>> points(nn);
  for (int i = 0; i < n; ++i) {
    points[static_cast<std::size_t>(i)] = {dprbg::eval_point<F>(i), F::zero()};
  }
  std::span<F> col(out.data(), m);
  k.interp_ns = per_unit_ns(static_cast<double>(nn) * m, [&] {
    dprbg::interpolate_at_block<F>(points, ptrs, F::zero(), col);
    return col[m / 2].to_uint();
  });

  // One Coin-Expose decode: n honest shares of a degree-t sharing, with
  // up to t errors tolerated (coin/coin_expose.h).
  const auto poly = dprbg::Polynomial<F>::random(t, rng);
  for (int i = 0; i < n; ++i) {
    points[static_cast<std::size_t>(i)].y = poly(points[static_cast<std::size_t>(i)].x);
  }
  k.bw_decode_us = per_unit_ns(1, [&] {
                     const auto p = dprbg::berlekamp_welch<F>(points, t, t);
                     return p ? (*p)(F::zero()).to_uint() : 0;
                   }) /
                   1e3;
  return k;
}

}  // namespace coinbench
