// A synchronous n-player cluster in one process: the in-process
// rendezvous link under the lockstep core (net/lockstep.h).
//
// Each player runs on its own thread; rounds advance in lockstep through
// a per-stream barrier. Messages sent during round r are delivered at the
// start of round r+1 — the synchronous model of Section 2. Byzantine
// players are ordinary programs that misbehave; the honest code never
// trusts anything it receives without validation.
//
// The core owns the handles, round streams, stream domains, ledgers,
// admit, fault routing and delivery order; this link owns only what is
// specific to threads sharing memory:
//
//   * the barrier — a stream's exchange fires when every active player
//     of its domain roster is waiting on it (the last arriving thread
//     runs the core's Exchange, then releases the waiters);
//   * drop — a player whose program returns stops counting towards any
//     barrier, so crash-faulty or early-returning programs cannot
//     deadlock a round;
//   * the simulated round latency, slept once per exchange outside the
//     lock so overlapped streams hide it.
//
// Determinism: inboxes are fixed by the core's canonical order and
// threads only interact at barriers, so a fixed seed replays an
// identical execution per stream.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/metrics.h"
#include "common/telemetry.h"
#include "net/lockstep.h"

namespace dprbg {

class Committee;

class Cluster : public LockstepCore {
 public:
  using Program = std::function<void(PartyIo&)>;

  // n players tolerating t faults; `seed` drives all player randomness.
  Cluster(int n, int t, std::uint64_t seed);

  // Runs one program per player to completion (spawns n threads; a program
  // that returns early keeps participating in barriers so the rest can
  // finish). Rethrows the first player exception, if any.
  void run(std::vector<Program> programs);

  // Convenience: every player runs `honest` except the ids in `faulty`,
  // which run `adversary` (if null, faulty players crash immediately —
  // they never send anything).
  void run(const Program& honest, const std::vector<int>& faulty,
           const Program& adversary);

  // Simulated one-way link latency per lockstep exchange, in
  // microseconds. Zero (the default) reproduces the compute-bound
  // barrier. When nonzero, every thread sleeps this long after its
  // stream's exchange — transcripts are unaffected (barriers already fix
  // the order), but wall-clock now charges one network traversal per
  // round, so overlapped streams genuinely hide round latency
  // (bench/pipeline measures exactly this).
  void set_round_latency_us(unsigned us) { round_latency_us_ = us; }
  [[nodiscard]] unsigned round_latency_us() const {
    return round_latency_us_;
  }
  // Per-domain override of the simulated round latency: a slow committee
  // on an otherwise fast cluster (the failover chaos tests and the
  // crash-committee bench model stalls exactly this way). -1 (the
  // default) inherits the cluster-wide value; committee 0 with no
  // registered domain addresses the default domain. Must not be called
  // while run() is active.
  void set_domain_round_latency_us(std::uint32_t committee, int us);

  // Aggregate field-operation counts across all player threads.
  [[nodiscard]] const FieldCounters& field_ops() const { return field_ops_; }
  // Per-player field-operation counts from the last run(). Work done on
  // pipeline worker threads is included as long as the driver folds the
  // worker deltas back into the root thread before the program returns
  // (pipelined_coin_gen does).
  [[nodiscard]] const std::vector<FieldCounters>& per_player_field_ops()
      const {
    return per_player_field_ops_;
  }

 private:
  friend class Committee;  // opens member handles on committee streams

  struct Barrier {
    int waiting = 0;  // threads parked on the stream's current round
    std::uint64_t generation = 0;
  };

  void link_sync(PartyIo& io) override;
  void drop(int player);
  // Runs `st`'s exchange and releases its waiters (mu_ held).
  void fire(RoundStream& st, Barrier& b);
  // Threads a stream's barrier waits for: active players in its roster.
  [[nodiscard]] int expected(const RoundStream& st) const;

  // Guarded by mu_.
  std::condition_variable cv_;
  int expected_ = 0;          // active (not yet returned) player threads
  std::vector<char> active_;  // per-player: root program still running
  std::map<std::uint32_t, Barrier> barriers_;
  Histogram* tel_barrier_wait_ = nullptr;

  unsigned round_latency_us_ = 0;
  FieldCounters field_ops_;
  std::vector<FieldCounters> per_player_field_ops_;
};

}  // namespace dprbg
