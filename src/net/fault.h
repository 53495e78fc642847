// Deterministic link-fault injection for the synchronous cluster.
//
// The paper's model (Section 2) assumes reliable private channels: every
// message staged in round r arrives intact in round r+1. Real networks
// lose, delay, duplicate, and corrupt traffic. This module lets tests and
// benchmarks subject the cluster to exactly those failures while keeping
// the paper's guarantees checkable, via *attribution*: every faulted link
// must be adjacent to a player in the plan's "charged" set. A lossy link
// next to player c is indistinguishable (to everyone else) from c being
// Byzantine — dropping c's outgoing message is c staying silent,
// corrupting it is c lying, delaying it is c sending stale traffic, and
// faults on c's incoming links are c ignoring what it was sent. So as
// long as the charged set has size <= t, Lemmas 1-8 must still hold for
// the players *outside* it, and the chaos harness asserts exactly that
// (see tests/chaos_soak_test.cpp and DESIGN.md "Link faults").
//
// Determinism/replay contract: a FaultPlan is a pure value (explicit
// per-(round, from->to) actions); `random_fault_plan(params, seed)` is a
// pure function of its arguments; corruption masks are derived from
// (corruption seed, round, from, to) only. Faults are applied inside
// the lockstep core's exchange (net/lockstep.h), which runs under the
// core's lock in a fixed sender-major order, so a fixed (cluster seed,
// plan seed) replays an identical execution — failing chaos seeds
// reproduce exactly.
//
// Round indexing: `round` counts the exchanges of the round stream the
// message was staged on, starting at 0 — i.e. the exchange that delivers
// a stream's first-round messages has index 0. For root-only runs this
// is the cluster's total exchange count (the original contract); a
// pipelined run applies the plan to round r of *every* stream
// independently, which keeps fault placement deterministic no matter how
// the streams interleave in wall-clock (see net/lockstep.h).

#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "common/metrics.h"
#include "net/msg.h"

namespace dprbg {

enum class FaultAction : std::uint8_t {
  kDrop,       // discard the link's messages this round
  kDelay,      // withhold them, merge into exchange round + param
  kDuplicate,  // deliver param extra copies alongside the original
  kCorrupt,    // deterministically mangle param bytes of each body
};

struct FaultSpec {
  FaultAction action = FaultAction::kDrop;
  // kDelay: rounds withheld (>= 1); kDuplicate: extra copies (>= 1);
  // kCorrupt: bytes mangled (>= 1); ignored for kDrop.
  unsigned param = 1;
};

// A value describing which directed links misbehave at which exchanges,
// plus the player set the faults are charged to. `add` aborts (programmer
// error) unless the link touches a charged player — charge first.
class FaultPlan {
 public:
  FaultPlan() = default;

  // Marks `player` as charged: faults on its adjacent links are
  // attributed to it, and it counts against the t-budget.
  void charge(int player) { charged_.insert(player); }
  [[nodiscard]] const std::set<int>& charged() const { return charged_; }
  // True when the plan's faults are attributable to <= t players.
  [[nodiscard]] bool attributable(unsigned t) const {
    return charged_.size() <= t;
  }

  // Registers `spec` for every message sent from->to during exchange
  // `round`. Self-links (from == to) are not real links and are rejected.
  void add(std::uint64_t round, int from, int to, FaultSpec spec);

  // Drops all traffic between `island` and the rest of an n-player
  // cluster for exchanges [first_round, last_round]. Every cross link
  // must be chargeable, so either the whole island or the whole
  // complement must have been charged.
  void add_partition(std::uint64_t first_round, std::uint64_t last_round,
                     const std::vector<int>& island, int n);

  // Severs one player from everyone else for a window of exchanges
  // (the player must be charged).
  void isolate(std::uint64_t first_round, std::uint64_t last_round,
               int player, int n);

  // The specs for (round, from->to), or nullptr when the link is clean.
  [[nodiscard]] const std::vector<FaultSpec>* find(std::uint64_t round,
                                                  int from, int to) const;

  [[nodiscard]] bool empty() const { return faults_.empty(); }
  // Total number of registered (round, link, action) entries.
  [[nodiscard]] std::size_t size() const;
  // Largest round with a registered fault (0 when empty).
  [[nodiscard]] std::uint64_t horizon() const;

  // The same plan with every player id pushed through `local_to_global`
  // (index = local id). Committees build plans against their local
  // indices [0, committee n) and remap onto cluster player ids before
  // installing the injector on their stream domain; rounds are already
  // per-stream, so they translate unchanged.
  [[nodiscard]] FaultPlan remapped(
      const std::vector<int>& local_to_global) const;

 private:
  using Key = std::tuple<std::uint64_t, int, int>;  // (round, from, to)
  std::set<int> charged_;
  std::map<Key, std::vector<FaultSpec>> faults_;
};

// Parameters for the seeded random-plan generator.
struct FaultPlanParams {
  int n = 0;
  unsigned t = 0;
  std::uint64_t rounds = 32;   // exchanges covered: [0, rounds)
  double fault_rate = 0.05;    // per (round, charged directed link)
  unsigned max_delay = 3;      // kDelay param drawn from [1, max_delay]
  // Players that must stay outside the charged set (e.g. a dealer whose
  // honesty the test asserts on). Capped charged-set size defaults to t.
  std::vector<int> never_charge;
  unsigned max_charged = ~0u;
};

// Draws a uniformly random charged set of size min(t, max_charged, #
// chargeable players), then flips a `fault_rate` coin for every (round,
// directed link adjacent to the charged set) and picks a random action.
// Pure function of (params, seed): the same arguments always yield the
// same plan, which is what makes failing chaos seeds replayable.
FaultPlan random_fault_plan(const FaultPlanParams& params,
                            std::uint64_t seed);

// A message withheld by a kDelay fault, waiting for its delivery round.
struct DelayedMsg {
  int to;
  Msg msg;
};
// Keyed by the exchange index at which the messages are merged in.
using DelayQueue = std::map<std::uint64_t, std::vector<DelayedMsg>>;

// Applies a FaultPlan to staged messages. Stateless apart from the plan
// and the corruption seed; all mutable bookkeeping (delay queues, fault
// counters) lives in the Cluster so one injector can be shared.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan,
                         std::uint64_t corruption_seed = 0xFA0175EEDull)
      : plan_(std::move(plan)), corruption_seed_(corruption_seed) {}

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  // Routes one staged message through the plan. Clean/duplicated/
  // corrupted copies are appended to `now`; delayed copies to `later`
  // keyed by delivery exchange; `counters` accumulates per-message
  // effects. Action composition on one link: kDrop wins outright;
  // otherwise kCorrupt mangles the body, kDuplicate adds copies of the
  // (possibly corrupted) message, and kDelay reschedules all copies.
  void route(std::uint64_t round, int to, Msg msg, std::vector<Msg>& now,
             DelayQueue& later, FaultCounters& counters) const;

 private:
  void corrupt_body(std::uint64_t round, int from, int to, unsigned bytes,
                    std::vector<std::uint8_t>& body) const;

  FaultPlan plan_;
  std::uint64_t corruption_seed_;
};

}  // namespace dprbg
