// The three benchmark workloads and the runs that drive them.
//
// Every workload is GF2_64 at n=7, t=1, closed-loop: each player waits for
// its coin (or batch) before asking for the next, as every caller in the
// tree does. The threads are the transports' own (one per player, plus the
// pipeline's per-batch workers and the socket backend's per-peer threads);
// the benchmark adds none.
//
// A run is: genesis dealing, transport start, untimed warm-up, then a
// timed window of ops (Coin-Gen batches, or draws) admitted by a shared
// Latch. On the mint workloads the window alternates mint segments and
// expose segments, as tools/dprbg_node does: mint a run of batches, then
// expose the minted coins one by one. A live latch admits ops until the
// window closes (and, between segments, refuses the first op past each
// segment's time); a replay latch plays back an earlier run's verdicts, so
// that the same ops run again and their per-op digests and comm ledgers can
// be compared bit for bit.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "timed_io.h"

#include "common/metrics.h"

namespace coinbench {

struct Workload {
  std::string name;
  bool tcp = false;        // TcpLoopback instead of the simulated Cluster
  bool draw = false;       // DPrbg::next_coin stream instead of minting
  unsigned m = 0;          // coins per Coin-Gen batch
  unsigned depth = 1;      // pipeline depth
  unsigned chunk = 1;      // batches per pipelined_coin_gen call
  double segment_s = 0;    // mint: length of each mint and expose segment
  unsigned warmup = 0;     // untimed batches (mint) or draws before the window
  unsigned warmup_draws = 0;     // mint: untimed exposures after those
  std::uint64_t trace_cap = 0;   // op cap of the traced run (trace memory)
};

// Returns nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

inline constexpr int kN = 7;
inline constexpr int kT = 1;

// What a run does beyond set-up.
struct Shape {
  std::uint64_t seed = 0;
  bool setup_only = false;   // stop after the warm-up
  double seconds = 0;        // live latch: the window
  // Replay latch: an earlier run's verdicts (RunResult::verdicts).
  const std::vector<bool>* replay = nullptr;
  bool traced = false;       // TimedIo-wrapped (tracer/telemetry set by caller)
};

// Player 0's view of one segment of the window: when it began and when
// each of its ops ended.
struct Segment {
  Clock::time_point begin;
  std::vector<Clock::time_point> ends;
};

// One latency sample and when it ended.
struct Sample {
  Clock::time_point end;
  double value = 0;
};

struct PlayerLog {
  // Per-op digests in op order, warm-up included. `pub` is what every
  // player must agree on (batch clique and dealers, exposed values);
  // `priv` adds this player's own shares.
  std::vector<std::uint64_t> pub, priv;
  // Timed window only.
  std::vector<Sample> batch_ms;           // Coin-Gen launch -> join
  std::vector<Sample> draw_us;            // one draw (Coin-Expose)
  std::vector<double> expose_compute_us;  // traced: draw minus transport
  // Player 0: batches end in coin segments (on draw_stream, the draws that
  // carried a refill) and draws in draw segments.
  std::vector<Segment> coin_segs, draw_segs;
  Clock::time_point ready, begin, end;
  std::uint64_t mint_ns = 0;  // time in the window's mint segments
  // failed_batches and failed_draws count the whole run, warm-up too;
  // window_failed counts the window's failed ops.
  std::uint64_t batches = 0, failed_batches = 0, coins = 0;
  std::uint64_t draws = 0, failed_draws = 0, draw_rounds = 0;
  std::uint64_t window_failed = 0;
  std::uint64_t refills = 0, refill_seed_coins = 0;
  // Whole run, warm-up too.
  std::uint64_t run_coins = 0, run_draws = 0;
  // Traffic of the run's draws that carried no refill, and their count:
  // every exposure sends the same, so this scales to all run_draws.
  dprbg::CommCounters expose_comm;
  std::uint64_t expose_draws = 0;
  unsigned threads_max = 0;
  TimedRecords timed;  // traced runs: the wrapper's records
};

struct RunResult {
  std::vector<PlayerLog> players;
  std::vector<dprbg::CommCounters> comm;  // per player
  double setup_s = 0;
  double window_s = 0;
  Clock::time_point begin;  // earliest player's window start
  std::uint64_t timed_ops = 0;    // ops admitted
  std::vector<bool> verdicts;     // the latch's verdicts, in ask order
  std::uint64_t stale = 0, foreign = 0, decode = 0;
  std::uint64_t frame_errors = 0;  // TCP: undecodable frames, lapsed traffic
  std::uint64_t lapsed_peers = 0;
  std::uint64_t tx_bytes = 0;      // TCP: physical frame bytes sent
  double start_ms = 0;             // TCP: mesh start
};

// Runs `w` once on its own transport, or on the simulator when `force_sim`
// (the TCP equivalence reference).
RunResult run_workload(const Workload& w, const Shape& s, bool force_sim = false);

}  // namespace coinbench
