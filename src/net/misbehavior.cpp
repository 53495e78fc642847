#include "net/misbehavior.h"

#include <string>

#include "common/check.h"

namespace dprbg {

const char* to_string(PeerStanding s) {
  switch (s) {
    case PeerStanding::kHealthy: return "healthy";
    case PeerStanding::kSuspect: return "suspect";
    case PeerStanding::kBanned: return "banned";
  }
  return "?";
}

const char* to_string(MisbehaviorSignal s) {
  switch (s) {
    case MisbehaviorSignal::kDecodeFailure: return "decode_failure";
    case MisbehaviorSignal::kStaleFlood: return "stale_flood";
    case MisbehaviorSignal::kForeignTraffic: return "foreign_traffic";
    case MisbehaviorSignal::kSlowEnvelope: return "slow_envelope";
  }
  return "?";
}

MisbehaviorManager::MisbehaviorManager(int n, MisbehaviorPolicy policy)
    : n_(n), policy_(policy) {
  DPRBG_CHECK(n >= 1);
  DPRBG_CHECK(policy_.suspect_exit <= policy_.suspect_enter);
  DPRBG_CHECK(policy_.suspect_enter <= policy_.ban_enter);
  DPRBG_CHECK(policy_.ban_exit <= policy_.ban_enter);
  std::lock_guard lk(mu_);  // the telemetry view is already registered
  peers_.resize(static_cast<std::size_t>(n));
  banned_flags_ =
      std::make_unique<std::atomic<std::uint8_t>[]>(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    banned_flags_[static_cast<std::size_t>(i)].store(
        0, std::memory_order_relaxed);
  }
}

void MisbehaviorManager::collect(ViewSink& sink) const {
  std::lock_guard lk(mu_);
  for (std::size_t s = 0; s < kMisbehaviorSignals; ++s) {
    std::uint64_t reports = 0;
    for (const PeerState& p : peers_) reports += p.reports[s];
    sink.counter("net_misbehavior_reports_total",
                 std::string("signal=") +
                     to_string(static_cast<MisbehaviorSignal>(s)),
                 reports);
  }
  sink.counter("net_peer_bans_total", {}, totals_.bans);
  sink.counter("net_peer_unbans_total", {}, totals_.unbans);
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    sink.gauge("net_peer_standing", "player=" + std::to_string(i),
               static_cast<std::int64_t>(peers_[i].standing));
  }
}

void MisbehaviorManager::apply_transitions(int peer, PeerState& p,
                                           bool rising) {
  if (rising) {
    if (p.standing != PeerStanding::kBanned &&
        p.score >= policy_.ban_enter) {
      p.standing = PeerStanding::kBanned;
      ++p.bans;
      ++totals_.bans;
      banned_flags_[static_cast<std::size_t>(peer)].store(
          1, std::memory_order_relaxed);
    } else if (p.standing == PeerStanding::kHealthy &&
               p.score >= policy_.suspect_enter) {
      p.standing = PeerStanding::kSuspect;
    }
  } else {
    if (p.standing == PeerStanding::kBanned && !policy_.permanent_ban &&
        p.score < policy_.ban_exit) {
      p.standing = PeerStanding::kSuspect;
      ++p.unbans;
      ++totals_.unbans;
      banned_flags_[static_cast<std::size_t>(peer)].store(
          0, std::memory_order_relaxed);
    }
    if (p.standing == PeerStanding::kSuspect &&
        p.score < policy_.suspect_exit) {
      p.standing = PeerStanding::kHealthy;
    }
  }
}

void MisbehaviorManager::report(int peer, MisbehaviorSignal sig,
                                std::uint64_t count) {
  if (peer < 0 || peer >= n_ || count == 0) return;
  std::lock_guard lk(mu_);
  record_report(peer, sig, count);
  PeerState& p = peers_[static_cast<std::size_t>(peer)];
  p.score += policy_.weight(sig) * count;
  apply_transitions(peer, p, /*rising=*/true);
}

void MisbehaviorManager::report_decode(int peer, int reporter,
                                       std::uint64_t count) {
  if (peer < 0 || peer >= n_ || count == 0) return;
  if (reporter < 0 || reporter >= n_ || reporter == peer) return;
  std::lock_guard lk(mu_);
  record_report(peer, MisbehaviorSignal::kDecodeFailure, count);
  PeerState& p = peers_[static_cast<std::size_t>(peer)];
  const std::uint64_t weighted =
      policy_.weight(MisbehaviorSignal::kDecodeFailure) * count;
  if (policy_.decode_reporter_quorum <= 1) {
    p.score += weighted;
    apply_transitions(peer, p, /*rising=*/true);
    return;
  }
  if (p.decode_reporters.empty()) {
    p.decode_reporters.assign(static_cast<std::size_t>(n_), 0);
  }
  if (p.decode_reporters[static_cast<std::size_t>(reporter)] == 0) {
    p.decode_reporters[static_cast<std::size_t>(reporter)] = 1;
    ++p.distinct_decode_reporters;
  }
  if (p.distinct_decode_reporters < policy_.decode_reporter_quorum) {
    // Below quorum: record, hold the score. A lone Byzantine framer can
    // pile up held weight forever without moving the standing machine.
    p.decode_held += weighted;
    return;
  }
  // Quorum met (possibly by this very report): release everything held
  // so a genuine flood bans exactly as fast as the unanimous case.
  p.score += p.decode_held + weighted;
  p.decode_held = 0;
  apply_transitions(peer, p, /*rising=*/true);
}

// Shared recording half of report()/report_decode(): reports[] ledger
// and totals. Called with mu_ held.
void MisbehaviorManager::record_report(int peer, MisbehaviorSignal sig,
                                       std::uint64_t count) {
  peers_[static_cast<std::size_t>(peer)]
      .reports[static_cast<std::size_t>(sig)] += count;
  totals_.reports += count;
}

void MisbehaviorManager::tick(std::uint64_t ticks) {
  if (ticks == 0 || policy_.decay_per_tick == 0) return;
  std::lock_guard lk(mu_);
  const std::uint64_t decay = policy_.decay_per_tick * ticks;
  for (int i = 0; i < n_; ++i) {
    PeerState& p = peers_[static_cast<std::size_t>(i)];
    p.score = p.score > decay ? p.score - decay : 0;
    apply_transitions(i, p, /*rising=*/false);
  }
}

std::uint64_t MisbehaviorManager::score(int peer) const {
  if (peer < 0 || peer >= n_) return 0;
  std::lock_guard lk(mu_);
  return peers_[static_cast<std::size_t>(peer)].score;
}

PeerStanding MisbehaviorManager::standing(int peer) const {
  if (peer < 0 || peer >= n_) return PeerStanding::kHealthy;
  std::lock_guard lk(mu_);
  return peers_[static_cast<std::size_t>(peer)].standing;
}

void MisbehaviorManager::note_suppressed(int peer, std::uint64_t count) {
  if (peer < 0 || peer >= n_ || count == 0) return;
  std::lock_guard lk(mu_);
  peers_[static_cast<std::size_t>(peer)].suppressed += count;
  totals_.suppressed += count;
}

MisbehaviorManager::PeerSnapshot MisbehaviorManager::peer(int peer) const {
  PeerSnapshot out;
  if (peer < 0 || peer >= n_) return out;
  std::lock_guard lk(mu_);
  const PeerState& p = peers_[static_cast<std::size_t>(peer)];
  out.score = p.score;
  out.standing = p.standing;
  for (std::size_t s = 0; s < kMisbehaviorSignals; ++s) {
    out.reports[s] = p.reports[s];
  }
  out.suppressed = p.suppressed;
  out.bans = p.bans;
  out.unbans = p.unbans;
  out.decode_reporters = p.distinct_decode_reporters;
  out.decode_held = p.decode_held;
  return out;
}

MisbehaviorManager::Totals MisbehaviorManager::totals() const {
  std::lock_guard lk(mu_);
  return totals_;
}

}  // namespace dprbg
