// The lockstep core shared by every transport.
//
// Every protocol in the repo assumes the synchronous model of Section 2:
// private channels, and round r's sends delivered — to everyone, in one
// canonical order — at round r's sync(). The repo has two transports for
// that contract: the in-process simulated `Cluster` (net/cluster.h) and
// the real-socket `TcpCluster` (net/tcp_cluster.h). Both are thin links
// over the one `LockstepCore` defined here, which owns everything the
// contract consists of:
//
//   * the `PartyIo` handle every protocol runs on: per-(player, stream)
//     ChaCha derivation, send-side comm charge and `net/send` trace,
//     `instance()`, and `note_decode_failure`;
//   * the (player, stream) handle table and the round streams;
//   * stream domains (committee rosters) and one ledger per domain
//     {comm, faults, stale, foreign, decode, slow, banned} — each
//     verdict is counted there once; every aggregate accessor is a sum
//     over the domains, and the net_* telemetry counters are a
//     snapshot-time view of the same ledgers (plus the per-player
//     charged comm);
//   * the admit path (stale -> foreign -> banned, self-deliveries exempt
//     from ban suppression), then the misbehavior signal, the ledger
//     bump and the trace point;
//   * fault-plan routing, delay queues, comm charging, and the canonical
//     inbox order (stable by send order, sorted by (from, tag)).
//
// Round streams: any number of independent lockstep streams share the
// same players. Stream 0 is the root stream every program starts on;
// `PartyIo::instance(batch)` opens a per-(player, batch) handle on stream
// `batch`. Every envelope carries its stream id (Msg::batch) and is
// delivered only on that stream, so a player can be in round r of batch
// k's exposure while batch k+1's Bit-Gen deal is in flight — the
// pipelined Coin-Gen scheduler (coin/coin_pipeline.h) is built on this.
// Stream domains carve contiguous stream ranges out for player subsets,
// which is how the committees of net/committee.h share one cluster.
//
// A link supplies only how one stream's envelopes meet: `link_sync` is
// the whole interface PartyIo::sync reaches. When every local member of
// a stream is ready, the link runs one `Exchange` under `mu_`: it feeds
// each envelope through route() sender-major in send order (the core
// puts due delayed arrivals first) and then deliver()s. Because the
// admit order, and hence the misbehavior scores and any ban that lands
// mid-exchange, is fixed by that feed order, two links fed the same
// per-sender send sequences deliver bit-for-bit identical inboxes —
// which tests/tcp_cluster_test.cpp asserts.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/telemetry.h"
#include "net/fault.h"
#include "net/misbehavior.h"
#include "net/msg.h"
#include "rng/chacha.h"

namespace dprbg {

class Cluster;
class Endpoint;
class LockstepCore;
class TcpCluster;

// The comm charge of one envelope: body plus v1's varint header.
// Physical framing (TCP length prefixes, bundle headers) is never
// charged, which keeps comm ledgers identical across links.
[[nodiscard]] std::uint64_t lockstep_wire_bytes(const Msg& msg);

// Per-(player, stream) handle passed to the player's program. All methods
// are called only from the thread currently driving that stream for that
// player (the player's root thread, or the worker thread the pipelined
// scheduler dedicates to the batch).
class PartyIo {
 public:
  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] int n() const;
  [[nodiscard]] int t() const;
  [[nodiscard]] Chacha& rng() { return rng_; }
  // The round stream this handle sends and receives on (0: root).
  [[nodiscard]] std::uint32_t stream() const { return stream_; }
  // The committee (stream domain) this handle's stream belongs to — 0
  // unless the stream falls in a range registered via
  // register_stream_domain (net/committee.h builds on this).
  [[nodiscard]] std::uint32_t committee() const;

  // The per-(player, batch) handle for round stream `batch`, created on
  // first use (stable thereafter). `instance(0)` and `instance(stream())`
  // return this handle itself. Handles share the player's identity but
  // nothing else: independent rng, inbox, staging, and round counter.
  PartyIo& instance(std::uint32_t batch);

  // Queue a private message for delivery next round (of this stream).
  void send(int to, std::uint32_t tag, std::vector<std::uint8_t> body);
  // Point-to-point "announce": send the same body to every player
  // (including a free self-delivery). This is NOT a broadcast channel —
  // a Byzantine sender can equivocate by calling send() per receiver.
  void send_all(std::uint32_t tag, const std::vector<std::uint8_t>& body);

  // End the round: block until every live player of this stream's roster
  // has ended it too, then receive the messages sent to this player
  // during the ended round.
  const Inbox& sync();

  // Messages delivered at the last sync().
  [[nodiscard]] const Inbox& inbox() const { return inbox_; }

  // Reports that a message from `from` (delivered on this stream) failed
  // protocol decoding. Counted in the stream's domain ledger, surfaced
  // as a `net/decode_reject` trace point, and forwarded to
  // the misbehavior manager as a kDecodeFailure signal against `from`.
  // Self-reports and out-of-range senders are ignored. Honest decoders
  // call this at every `if (!decoded)` drop site.
  void note_decode_failure(int from);

  // Communication this player has staged so far on this stream
  // (self-deliveries free); `sent().rounds` counts this handle's
  // completed sync() calls.
  [[nodiscard]] const CommCounters& sent() const { return sent_; }
  // Rounds this handle has completed (== sent().rounds). TraceSpan
  // (common/trace.h) uses this to stamp per-phase round ranges.
  [[nodiscard]] std::uint64_t rounds() const { return sent_.rounds; }

 private:
  friend class LockstepCore;
  friend class Cluster;
  friend class TcpCluster;
  friend class Endpoint;  // steals the delivered inbox for id remapping
  PartyIo(LockstepCore& core, int id, std::uint32_t stream,
          std::uint64_t seed);

  struct Envelope {
    int to;
    Msg msg;
  };

  // Moves the last delivered messages out (committee endpoints remap
  // sender ids and re-deliver into their own inbox).
  std::vector<Msg> take_inbox() { return std::move(inbox_).take_all(); }

  LockstepCore& core_;
  int id_;
  std::uint32_t stream_;
  Chacha rng_;
  Inbox inbox_;
  std::vector<Envelope> staged_;  // outgoing, handed to the link at sync
  CommCounters sent_;
  CommCounters charged_;  // the part of sent_ already in the core's comm()
};

class LockstepCore {
 public:
  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int t() const { return t_; }

  // Installs a link-fault injector consulted at every exchange (see
  // net/fault.h for the fault model and replay contract). Pass nullptr to
  // restore perfect links. Must not be called while run() is active; with
  // no injector (or an empty plan) delivery is byte-identical to a
  // fault-free run. Fault rounds are indexed by each stream's own
  // exchange count since construction, so a pipelined run applies the
  // plan to every stream's round r independently, which keeps delivery
  // deterministic regardless of how the streams interleave in wall-clock.
  void set_fault_injector(std::shared_ptr<const FaultInjector> injector) {
    injector_ = std::move(injector);
  }
  [[nodiscard]] const FaultInjector* fault_injector() const {
    return injector_.get();
  }

  // Installs a per-peer misbehavior manager (net/misbehavior.h). Admit
  // feeds it stale/foreign/slow-envelope signals, decoders feed it decode
  // failures via PartyIo::note_decode_failure, and envelopes from a peer
  // the manager has banned are suppressed at admit time (counted in
  // banned_suppressions and the domain ledgers, never delivered).
  // Self-deliveries are never suppressed — a banned peer keeps its own
  // loopback, exactly like a disconnected node still sees itself. Pass
  // nullptr to disable; must not be called while run() is active. The
  // manager's n must match the core's.
  void set_misbehavior_manager(std::shared_ptr<MisbehaviorManager> mgr);
  [[nodiscard]] MisbehaviorManager* misbehavior() const {
    return misbehavior_.get();
  }

  // -------------------------------------------------------------------
  // Stream domains (committees).
  //
  // A domain carves out a contiguous slice of the round-stream id space
  // for a subset of players: streams [first_stream, first_stream +
  // stream_count) barrier over exactly `members` (instead of every
  // player), may carry their own fault injector, and keep their own
  // ledger. This is the transport half of the Committee view in
  // net/committee.h — protocols never see it directly.
  //
  // Rules (DPRBG_CHECK-enforced): registration only while run() is not
  // active; committee ids unique; stream ranges disjoint from other
  // registered domains; members distinct and in [0, n). Streams outside
  // every registered range stay in the default domain (committee 0, all
  // players). Re-registering a range over an already-opened stream (the
  // root stream exists from construction) is allowed only before that
  // stream's first exchange.
  // -------------------------------------------------------------------
  void register_stream_domain(std::uint32_t committee,
                              std::uint32_t first_stream,
                              std::uint32_t stream_count,
                              const std::vector<int>& members);
  // Installs a fault injector consulted for this domain's streams only
  // (overriding the cluster-wide injector there). Same replay contract as
  // set_fault_injector; rounds are still indexed per-stream.
  void set_domain_fault_injector(std::uint32_t committee,
                                 std::shared_ptr<const FaultInjector> injector);
  // Fault effects charged to one domain's streams. For committee 0 with
  // no registered domain this is the default domain, i.e. everything a
  // plain cluster injects; summed over all domains it equals faults().
  [[nodiscard]] const FaultCounters& domain_faults(
      std::uint32_t committee) const;
  // One domain's ledger: link-fault effects plus the admit rejections
  // and decode reports charged to its streams.
  struct DomainLedger {
    CommCounters comm;  // charged on this domain; `rounds` = exchanges
    FaultCounters faults;
    std::uint64_t stale = 0;    // stale-tag rejections on this domain
    std::uint64_t foreign = 0;  // foreign-roster rejections on this domain
    std::uint64_t decode = 0;   // decode failures reported by receivers
    std::uint64_t slow = 0;     // delay-queue merges (late envelopes)
    std::uint64_t banned = 0;   // envelopes suppressed from banned peers
  };
  // A locked snapshot of one domain's ledger, safe to poll from a monitor
  // thread while run() is active; the beacon's eviction score
  // (beacon_failover.h) reads exactly this.
  [[nodiscard]] DomainLedger domain_ledger(std::uint32_t committee) const;
  // The committee id owning `stream` (0: default domain).
  [[nodiscard]] std::uint32_t committee_of(std::uint32_t stream) const;

  // Aggregate views: each is the sum of one ledger field over every
  // domain, across all run() calls, read under the lock.
  //
  // Link-fault effects (all-zero without an injector).
  [[nodiscard]] FaultCounters faults() const { return totals().faults; }
  // Envelopes whose wire batch id did not match the stream being
  // exchanged. PartyIo stamps every envelope with its own stream and
  // delay queues are per-stream, so this must stay 0 — the chaos tests
  // assert it under stale-tag delay floods.
  [[nodiscard]] std::uint64_t stale_rejections() const {
    return totals().stale;
  }
  // Envelopes whose sender or receiver was outside the stream's domain
  // roster. Handles are roster-guarded at creation and at sync, so like
  // stale_rejections() this must stay 0.
  [[nodiscard]] std::uint64_t foreign_rejections() const {
    return totals().foreign;
  }
  // Envelopes whose body failed protocol decoding at the receiver
  // (reported via PartyIo::note_decode_failure). Unlike stale/foreign
  // this counts actual Byzantine (or corrupted) payloads.
  [[nodiscard]] std::uint64_t decode_rejections() const {
    return totals().decode;
  }
  // Envelopes that arrived via the delay queue, i.e. at least one round
  // later than sent — each is one barrier-stall observation charged to
  // its sender.
  [[nodiscard]] std::uint64_t slow_envelopes() const { return totals().slow; }
  // Envelopes suppressed at admit time because the misbehavior manager
  // had banned the sender: counted here and in the ledgers, delivered
  // nowhere.
  [[nodiscard]] std::uint64_t banned_suppressions() const {
    return totals().banned;
  }

  // Aggregate communication across all local players, streams, and
  // run() calls; `rounds` counts exchanges.
  [[nodiscard]] CommCounters comm() const { return totals().comm; }
  // Per-player communication staged so far: player i's root handle plus
  // all of its per-batch instance handles. Must not be called while
  // run() is active. For programs that end with a sync(), the
  // message/byte sums equal comm() exactly; `rounds` is the player's own
  // total sync count across its handles.
  [[nodiscard]] std::vector<CommCounters> per_player_comm() const;

 protected:
  LockstepCore(int n, int t, std::uint64_t seed);
  ~LockstepCore();
  LockstepCore(const LockstepCore&) = delete;
  LockstepCore& operator=(const LockstepCore&) = delete;

  // The link's half of PartyIo::sync: hand `io`'s staged envelopes to
  // the link, wait until the stream's exchange for this round has run,
  // and leave the delivered inbox in `io`.
  virtual void link_sync(PartyIo& io) = 0;

  struct Domain {
    std::uint32_t committee = 0;
    std::uint32_t first_stream = 0;
    std::uint32_t stream_count = 0;  // 0: the default domain
    std::vector<char> roster;        // indexed by player id; empty: all
    std::shared_ptr<const FaultInjector> injector;  // nullptr: core-wide
    DomainLedger ledger;
    // Simulated round latency override read by the in-process link; -1
    // inherits the cluster-wide value.
    int round_latency_us = -1;
  };

  // One independent lockstep round stream.
  struct RoundStream {
    std::uint32_t id = 0;
    std::uint64_t exchange_index = 0;
    DelayQueue delayed;
    // Local handles indexed by player id; nullptr until that player opens
    // its handle (a crashed player never does — its column is skipped).
    std::vector<PartyIo*> members;
    Domain* domain = nullptr;
  };

  // One exchange of one stream, run by the link with mu_ held. The
  // constructor takes the stream's next exchange index and admits the
  // delayed arrivals due now; the link then charges its local senders,
  // routes every envelope of the round sender-major in send order, and
  // ends with deliver().
  class Exchange {
   public:
    Exchange(LockstepCore& core, RoundStream& st);
    // Adds `sender`'s not yet charged sends to this exchange's comm.
    void charge(PartyIo& sender);
    // One envelope to `to`: non-self envelopes pass the fault plan, then
    // every surviving copy is admitted.
    void route(int to, Msg&& msg);
    // Books the exchange (comm, `net/round` trace) and hands
    // each local member its canonically sorted inbox.
    void deliver();

   private:
    void admit(int to, Msg&& msg);

    LockstepCore& core_;
    RoundStream& st_;
    Domain& dom_;
    const std::uint64_t round_;
    const FaultInjector* inj_;
    MisbehaviorManager* mgr_;
    const bool trace_on_;
    const std::uint32_t local_batch_;  // stream id within its domain
    CommCounters sent_;
  };

  // The (player, stream) handle, created on first use.
  PartyIo& handle(int player, std::uint32_t stream);
  RoundStream& round_stream(std::uint32_t stream) {  // with mu_ held
    return streams_.at(stream);
  }
  Domain& domain(std::uint32_t committee);  // with mu_ held
  // Every domain's ledger summed (takes mu_).
  [[nodiscard]] DomainLedger totals() const;
  static bool in_roster(const Domain& d, int player) {
    return d.roster.empty() || d.roster[static_cast<std::size_t>(player)] != 0;
  }

  // Guards everything below and the link's own barrier/demux state; the
  // link sets running_ for the duration of run().
  mutable std::mutex mu_;
  bool running_ = false;

 private:
  friend class PartyIo;

  Domain& domain_of(std::uint32_t stream);
  [[nodiscard]] const Domain& domain_of(std::uint32_t stream) const;
  // The net_* telemetry view over the ledgers below (takes mu_).
  void collect(ViewSink& sink) const;
  void note_decode_failure(const PartyIo& reporter, int from);

  const int n_;
  const int t_;
  const std::uint64_t seed_;

  std::map<std::pair<int, std::uint32_t>, std::unique_ptr<PartyIo>>
      handles_;  // stable for the core's lifetime
  // Keyed by stream id; std::map keeps references stable while new
  // streams are opened mid-run.
  std::map<std::uint32_t, RoundStream> streams_;
  Domain default_domain_;
  // unique_ptr keeps RoundStream::domain pointers stable across
  // registrations.
  std::vector<std::unique_ptr<Domain>> domains_;

  std::shared_ptr<const FaultInjector> injector_;
  std::shared_ptr<MisbehaviorManager> misbehavior_;
  // Comm charged per local sender by Exchange::charge.
  std::vector<CommCounters> player_comm_;
  // Per-exchange routing scratch: the outer vector survives across
  // exchanges so routing does not malloc per round (the inner vectors
  // move into the delivered Inboxes).
  std::vector<std::vector<Msg>> exchange_scratch_;
  CollectorHandle collector_ =
      metrics().add_collector([this](ViewSink& sink) { collect(sink); });
};

}  // namespace dprbg
