// Kernel replay: times the library's public GF2_64 kernels at one
// workload's shapes (M-element rows, n evaluation points), single-threaded
// on the main thread after the protocol runs.

#pragma once

#include <cstdint>

namespace coinbench {

struct KernelTimes {
  double mul_ns = 0;          // one GF2_64 multiply (row * scalar)
  double add_ns = 0;          // one GF2_64 add (row + row)
  double write_ns = 0;        // write_elem, per element
  double read_ns = 0;         // decode_elem_row, per element
  double rng_ns = 0;          // random_element<GF2_64>, per element
  double combine_ns = 0;      // batch_combine_block, per matrix element
  double interp_ns = 0;       // interpolate_at_block, per matrix element
  double bw_decode_us = 0;    // berlekamp_welch, one n-point decode
};

KernelTimes replay_kernels(unsigned m, int n, unsigned t, std::uint64_t seed);

}  // namespace coinbench
