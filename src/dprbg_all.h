// Umbrella header: the library's entire public API.
//
//   #include "dprbg_all.h"          (with -I<repo>/src)
//   link against the dprbg::all CMake target.
//
// For finer-grained builds include the per-module headers directly; the
// layering is documented in README.md ("Architecture") and DESIGN.md.

#pragma once

// Substrates.
#include "common/check.h"
#include "common/metrics.h"
#include "common/serial.h"
#include "common/stats.h"
#include "gf/field_concept.h"
#include "gf/field_io.h"
#include "gf/fft_field.h"
#include "gf/gf2.h"
#include "gf/zq.h"
#include "poly/berlekamp_welch.h"
#include "poly/interpolate.h"
#include "poly/linalg.h"
#include "poly/polynomial.h"
#include "rng/chacha.h"
#include "net/adversary.h"
#include "net/cluster.h"
#include "net/msg.h"
#include "sharing/shamir.h"

// Agreement primitives.
#include "ba/binary_ba.h"
#include "ba/multivalued.h"
#include "ba/phase_king.h"
#include "ba/randomized_ba.h"
#include "gradecast/gradecast.h"

// Verifiable secret sharing (Section 3).
#include "vss/batch_vss.h"
#include "vss/dealing_round.h"
#include "vss/soundness.h"
#include "vss/vss.h"

// Coin protocols (Section 4).
#include "coin/bitgen.h"
#include "coin/clique.h"
#include "coin/coin_expose.h"
#include "coin/coin_gen.h"
#include "coin/coin_gen_bc.h"
#include "coin/sealed_coin.h"

// The D-PRBG (Sections 1.1-1.2).
#include "dprbg/coin_pool.h"
#include "dprbg/dprbg.h"
#include "dprbg/proactive.h"
#include "dprbg/trusted_dealer.h"

// Baselines (Section 1.4 comparisons).
#include "baseline/cost_models.h"
#include "baseline/cut_and_choose_vss.h"
#include "baseline/dealer_stream.h"
#include "baseline/naive_coin.h"
