// Per-peer misbehavior scoring and ban policy.
//
// The chaos layer (net/fault.h) models *link* faults; this layer models
// the hostile-*peer* view a production beacon needs on top of it: every
// observable protocol violation — a malformed body that failed to decode,
// a stale-batch envelope, traffic from outside a committee roster, an
// envelope that arrived late enough to have held a round barrier hostage
// — is reported as a weighted signal against the sending peer, and the
// accumulated score drives a three-state standing machine:
//
//     healthy --(score >= suspect_enter)--> suspect
//     suspect --(score >= ban_enter)-----> banned
//     banned  --(decay below ban_exit)---> suspect
//     suspect --(decay below suspect_exit)-> healthy
//
// Enter and exit thresholds are deliberately distinct (hysteresis): a
// peer hovering around a single threshold cannot flap in and out of the
// banned set, which matters because the cluster demux suppresses a banned
// peer's traffic and flapping would make delivery depend on score timing.
// Scores decay via tick() (typically once per completed protocol or
// epoch), so a peer that had a bad patch but recovers is eventually
// readmitted — unless the policy says bans are permanent.
//
// Scope and trust: signals reported by the Cluster demux itself (stale,
// foreign, slow-envelope) are infrastructure observations and fully
// trusted. Decode failures are reported by the *receiving* player
// (PartyIo::note_decode_failure), so a Byzantine receiver could try to
// frame an honest sender; the manager records them all the same — it is
// an aggregation point, and DESIGN.md §15 spells out the reporter-quorum
// hardening a multi-trust-domain deployment would add on top.
//
// Thread-safety: report()/tick()/standing() take an internal mutex and
// may be called from any player thread or a monitor thread while run()
// is active. banned() is a lock-free relaxed-atomic read — it sits on
// the demux admit path of every exchanged envelope.
//
// Telemetry: one snapshot-time view (common/telemetry.h) reads the
// ledger below — net_misbehavior_reports_total{signal},
// net_peer_{bans,unbans}_total and net_peer_standing{player}.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/telemetry.h"

namespace dprbg {

enum class PeerStanding : std::uint8_t {
  kHealthy = 0,
  kSuspect = 1,
  kBanned = 2,
};

enum class MisbehaviorSignal : std::uint8_t {
  kDecodeFailure = 0,  // body failed protocol decoding (receiver-reported)
  kStaleFlood = 1,     // envelope for a dead batch/stream (demux-reported)
  kForeignTraffic = 2,  // sender/receiver outside the domain roster
  kSlowEnvelope = 3,    // delay-queue merge: arrived a round (or more) late
};
inline constexpr std::size_t kMisbehaviorSignals = 4;

[[nodiscard]] const char* to_string(PeerStanding s);
[[nodiscard]] const char* to_string(MisbehaviorSignal s);

// Weights and thresholds. Defaults are deliberately conservative: a
// single malformed message never bans, a sustained flood does. Invariants
// (checked at manager construction): suspect_exit <= suspect_enter <=
// ban_enter and ban_exit <= ban_enter.
struct MisbehaviorPolicy {
  std::uint64_t decode_weight = 10;
  std::uint64_t stale_weight = 5;
  std::uint64_t foreign_weight = 20;
  std::uint64_t slow_weight = 2;

  std::uint64_t suspect_enter = 50;
  std::uint64_t suspect_exit = 25;
  std::uint64_t ban_enter = 200;
  std::uint64_t ban_exit = 100;

  // Score subtracted per tick() unit; 0 disables decay.
  std::uint64_t decay_per_tick = 0;
  // When true a banned peer never recovers, regardless of decay.
  bool permanent_ban = false;

  // Reporter quorum for receiver-reported decode failures. Decode
  // failures are the one signal whose reporter is an untrusted player
  // (PartyIo::note_decode_failure), so a Byzantine receiver can frame an
  // honest sender. With quorum q >= 2, decode reports are *recorded*
  // immediately (reports[], totals) but their score contribution is held
  // back until >= q DISTINCT reporters have reported decode failures
  // against the peer; at the crossing the held score is applied
  // retroactively, so a real flood observed by a quorum bans exactly as
  // fast as before. The DESIGN.md §15 deployment rule is q = t + 1: at
  // least one honest witness. 0 or 1 keeps the legacy immediate scoring
  // (and anonymous report() calls keep working unchanged).
  unsigned decode_reporter_quorum = 0;

  [[nodiscard]] std::uint64_t weight(MisbehaviorSignal s) const {
    switch (s) {
      case MisbehaviorSignal::kDecodeFailure: return decode_weight;
      case MisbehaviorSignal::kStaleFlood: return stale_weight;
      case MisbehaviorSignal::kForeignTraffic: return foreign_weight;
      case MisbehaviorSignal::kSlowEnvelope: return slow_weight;
    }
    return 0;
  }
};

class MisbehaviorManager {
 public:
  explicit MisbehaviorManager(int n, MisbehaviorPolicy policy = {});

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] const MisbehaviorPolicy& policy() const { return policy_; }

  // Records `count` occurrences of `sig` against `peer` and applies any
  // standing transition the new score triggers. Out-of-range peers are
  // ignored (defensive: signals can carry attacker-controlled ids).
  // Anonymous decode-failure reports bypass the reporter quorum (legacy
  // path; the transports all use report_decode below).
  void report(int peer, MisbehaviorSignal sig, std::uint64_t count = 1);

  // Receiver-attributed decode failure: like report(peer,
  // kDecodeFailure, count) but carrying the reporting player's identity
  // so policy.decode_reporter_quorum can gate the score on distinct
  // witnesses. Out-of-range peers/reporters and self-reports (reporter
  // == peer) are ignored.
  void report_decode(int peer, int reporter, std::uint64_t count = 1);

  // Decays every peer's score by `ticks * decay_per_tick` and applies
  // downward standing transitions (banned -> suspect -> healthy) as
  // scores fall below the exit thresholds.
  void tick(std::uint64_t ticks = 1);

  [[nodiscard]] std::uint64_t score(int peer) const;
  [[nodiscard]] PeerStanding standing(int peer) const;

  // Lock-free: is `peer` currently banned? Safe on the demux hot path;
  // out-of-range peers read as not banned.
  [[nodiscard]] bool banned(int peer) const noexcept {
    if (peer < 0 || peer >= n_) return false;
    return banned_flags_[static_cast<std::size_t>(peer)].load(
               std::memory_order_relaxed) != 0;
  }

  // Called by the demux when it suppresses a banned peer's envelope —
  // the traffic is counted (here and in the cluster ledgers) but never
  // delivered.
  void note_suppressed(int peer, std::uint64_t count = 1);

  struct PeerSnapshot {
    std::uint64_t score = 0;
    PeerStanding standing = PeerStanding::kHealthy;
    std::uint64_t reports[kMisbehaviorSignals] = {0, 0, 0, 0};
    std::uint64_t suppressed = 0;  // envelopes dropped while banned
    std::uint64_t bans = 0;        // times this peer entered kBanned
    std::uint64_t unbans = 0;      // times it decayed back out
    // Distinct players that have reported decode failures against this
    // peer, and the decode score still held back below the quorum.
    unsigned decode_reporters = 0;
    std::uint64_t decode_held = 0;
  };
  [[nodiscard]] PeerSnapshot peer(int peer) const;

  struct Totals {
    std::uint64_t reports = 0;
    std::uint64_t bans = 0;
    std::uint64_t unbans = 0;
    std::uint64_t suppressed = 0;
  };
  [[nodiscard]] Totals totals() const;

 private:
  struct PeerState {
    std::uint64_t score = 0;
    PeerStanding standing = PeerStanding::kHealthy;
    std::uint64_t reports[kMisbehaviorSignals] = {0, 0, 0, 0};
    std::uint64_t suppressed = 0;
    std::uint64_t bans = 0;
    std::uint64_t unbans = 0;
    // Quorum gating for decode failures: which players have reported one
    // against this peer (indexed by reporter id, lazily sized), how many
    // distinct ones, and the weighted score held back until the quorum
    // is met.
    std::vector<char> decode_reporters;
    unsigned distinct_decode_reporters = 0;
    std::uint64_t decode_held = 0;
  };

  // Applies standing transitions for the peer's current score; called
  // with mu_ held. `rising` selects enter (report) vs exit (tick)
  // thresholds so hysteresis is honored.
  void apply_transitions(int peer, PeerState& p, bool rising);
  // Ledger half shared by report()/report_decode(); with mu_.
  void record_report(int peer, MisbehaviorSignal sig, std::uint64_t count);
  void collect(ViewSink& sink) const;  // the telemetry view (takes mu_)

  const int n_;
  const MisbehaviorPolicy policy_;

  mutable std::mutex mu_;
  std::vector<PeerState> peers_;
  Totals totals_;

  // Mirrors peers_[i].standing == kBanned for lock-free demux reads.
  std::unique_ptr<std::atomic<std::uint8_t>[]> banned_flags_;

  CollectorHandle collector_ =
      metrics().add_collector([this](ViewSink& sink) { collect(sink); });
};

}  // namespace dprbg
