#include "net/lockstep.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "common/trace.h"
#include "net/endpoint.h"

namespace dprbg {

static_assert(NetEndpoint<PartyIo>);

namespace {

// Disposition of one arriving envelope at admit time. The rejection
// names double as the `net/<verdict>` trace phases.
enum class AdmitVerdict : std::uint8_t { kDeliver, kStale, kForeign, kBanned };

const char* to_string(AdmitVerdict v) {
  switch (v) {
    case AdmitVerdict::kDeliver: return "deliver";
    case AdmitVerdict::kStale: return "stale";
    case AdmitVerdict::kForeign: return "foreign";
    case AdmitVerdict::kBanned: return "banned";
  }
  return "?";
}

// The admit decision, in the canonical order: stale first (an envelope
// surfacing outside its stream is a demux invariant violation no matter
// who sent it), then roster membership, then ban suppression — last, so a
// banned peer's traffic has already been charged to comm and fault
// ledgers by the time it is suppressed (the counted-but-never-delivered
// contract), and self-deliveries are exempt (a banned peer keeps its own
// loopback, exactly like a disconnected node still sees itself).
template <typename InRosterFn>
AdmitVerdict classify_envelope(const Msg& msg, int to, std::uint32_t stream,
                               InRosterFn&& in_roster,
                               const MisbehaviorManager* mgr) {
  if (msg.batch != stream) return AdmitVerdict::kStale;
  if (!in_roster(msg.from) || !in_roster(to)) return AdmitVerdict::kForeign;
  if (mgr != nullptr && to != msg.from && mgr->banned(msg.from)) {
    return AdmitVerdict::kBanned;
  }
  return AdmitVerdict::kDeliver;
}

// The ChaCha stream id for (player, round stream). Stream 0 keeps the
// historical per-player stream ids (plain player id) so root-stream
// transcripts are bit-for-bit unchanged; batch streams get
// (batch << 32 | player), disjoint from both the root ids and the
// trusted dealer's genesis stream (0xDEA1E4).
std::uint64_t rng_stream(int id, std::uint32_t stream) {
  if (stream == 0) return static_cast<std::uint64_t>(id);
  return (static_cast<std::uint64_t>(stream) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(id));
}

}  // namespace

std::uint64_t lockstep_wire_bytes(const Msg& msg) {
  EnvelopeHeader h;
  h.from = static_cast<std::uint32_t>(msg.from);
  h.tag = msg.tag;
  h.batch = msg.batch;
  h.body_len = static_cast<std::uint32_t>(msg.body.size());
  return msg.body.size() + envelope_header_bytes(h);
}

// ---------------------------------------------------------------------------
// PartyIo.

PartyIo::PartyIo(LockstepCore& core, int id, std::uint32_t stream,
                 std::uint64_t seed)
    : core_(core),
      id_(id),
      stream_(stream),
      rng_(seed, rng_stream(id, stream)) {}

int PartyIo::n() const { return core_.n(); }
int PartyIo::t() const { return core_.t(); }

std::uint32_t PartyIo::committee() const {
  return core_.committee_of(stream_);
}

PartyIo& PartyIo::instance(std::uint32_t batch) {
  if (batch == 0 || batch == stream_) return *this;
  return core_.handle(id_, batch);
}

void PartyIo::send(int to, std::uint32_t tag,
                   std::vector<std::uint8_t> body) {
  if (to < 0 || to >= core_.n()) return;
  Msg msg;
  msg.from = id_;
  msg.tag = tag;
  msg.batch = stream_;
  msg.body = std::move(body);
  if (to != id_) {
    const std::uint64_t bytes = lockstep_wire_bytes(msg);
    ++sent_.messages;
    sent_.bytes += bytes;
    if (tracer().enabled()) {
      // Net events carry the domain-local batch id (global stream minus
      // the domain's base) plus the committee id, matching the ids the
      // protocol spans above them use.
      const auto& dom = core_.domain_of(stream_);
      TraceEvent ev;
      ev.kind = TraceEventKind::kPoint;
      ev.protocol = "net";
      ev.phase = "send";
      ev.player = id_;
      ev.batch = stream_ - dom.first_stream;
      ev.committee = dom.committee;
      ev.round_begin = ev.round_end = sent_.rounds;
      ev.comm.messages = 1;
      ev.comm.bytes = bytes;
      ev.detail = "to=" + std::to_string(to) + " tag=" + std::to_string(tag);
      tracer().record(std::move(ev));
    }
  }
  staged_.push_back(Envelope{to, std::move(msg)});
}

void PartyIo::send_all(std::uint32_t tag,
                       const std::vector<std::uint8_t>& body) {
  for (int to = 0; to < core_.n(); ++to) send(to, tag, body);
}

const Inbox& PartyIo::sync() {
  core_.link_sync(*this);
  ++sent_.rounds;
  return inbox_;
}

void PartyIo::note_decode_failure(int from) {
  core_.note_decode_failure(*this, from);
}

// ---------------------------------------------------------------------------
// LockstepCore: handles, domains, ledgers.

LockstepCore::LockstepCore(int n, int t, std::uint64_t seed)
    : n_(n), t_(t), seed_(seed), player_comm_(static_cast<std::size_t>(n)) {
  DPRBG_CHECK(n >= 1 && t >= 0 && t < n);
}

LockstepCore::~LockstepCore() = default;

PartyIo& LockstepCore::handle(int player, std::uint32_t stream) {
  DPRBG_CHECK(player >= 0 && player < n_);
  // Caps per-peer stream allocation: every envelope is staged via a
  // handle created here, so checking at this choke point bounds the
  // stream table for all traffic. Batch ids grow monotonically without
  // reuse (DPrbg never recycles them), so a long-running instance whose
  // batch id would wrap fails loudly here instead of aliasing an old
  // stream.
  DPRBG_CHECK(stream <= 0xFFFF);
  std::lock_guard lk(mu_);
  std::unique_ptr<PartyIo>& io = handles_[{player, stream}];
  if (io == nullptr) {
    Domain& dom = domain_of(stream);
    // A player may only open handles on streams whose domain roster
    // includes it — this is what keeps committee traffic inside the
    // committee (the admit-time foreign check is only a backstop).
    DPRBG_CHECK(in_roster(dom, player));
    io.reset(new PartyIo(*this, player, stream, seed_));
    RoundStream& st = streams_[stream];
    st.id = stream;
    st.domain = &dom;
    if (st.members.empty()) st.members.assign(n_, nullptr);
    st.members[player] = io.get();
  }
  return *io;
}

LockstepCore::Domain& LockstepCore::domain_of(std::uint32_t stream) {
  for (auto& d : domains_) {
    if (stream >= d->first_stream &&
        stream - d->first_stream < d->stream_count) {
      return *d;
    }
  }
  return default_domain_;
}

const LockstepCore::Domain& LockstepCore::domain_of(
    std::uint32_t stream) const {
  return const_cast<LockstepCore*>(this)->domain_of(stream);
}

LockstepCore::Domain& LockstepCore::domain(std::uint32_t committee) {
  for (auto& d : domains_) {
    if (d->committee == committee) return *d;
  }
  DPRBG_CHECK(committee == 0);  // the default domain
  return default_domain_;
}

std::uint32_t LockstepCore::committee_of(std::uint32_t stream) const {
  return domain_of(stream).committee;
}

void LockstepCore::register_stream_domain(std::uint32_t committee,
                                          std::uint32_t first_stream,
                                          std::uint32_t stream_count,
                                          const std::vector<int>& members) {
  std::lock_guard lk(mu_);
  DPRBG_CHECK(!running_);
  DPRBG_CHECK(stream_count > 0);
  DPRBG_CHECK(!members.empty());
  auto dom = std::make_unique<Domain>();
  dom->committee = committee;
  dom->first_stream = first_stream;
  dom->stream_count = stream_count;
  dom->roster.assign(static_cast<std::size_t>(n_), 0);
  for (int m : members) {
    DPRBG_CHECK(m >= 0 && m < n_);
    DPRBG_CHECK(dom->roster[static_cast<std::size_t>(m)] == 0);
    dom->roster[static_cast<std::size_t>(m)] = 1;
  }
  for (const auto& d : domains_) {
    DPRBG_CHECK(d->committee != committee);
    const bool disjoint =
        first_stream + stream_count <= d->first_stream ||
        d->first_stream + d->stream_count <= first_stream;
    DPRBG_CHECK(disjoint);
  }
  // Re-point already-opened streams in range (the root stream exists from
  // construction); only legal while the stream is still untouched, since
  // changing a live stream's roster would corrupt its barrier.
  for (auto& [sid, st] : streams_) {
    if (sid >= first_stream && sid - first_stream < stream_count) {
      DPRBG_CHECK(st.exchange_index == 0);
      st.domain = dom.get();
    }
  }
  domains_.push_back(std::move(dom));
}

void LockstepCore::set_domain_fault_injector(
    std::uint32_t committee, std::shared_ptr<const FaultInjector> injector) {
  std::lock_guard lk(mu_);
  DPRBG_CHECK(!running_);
  domain(committee).injector = std::move(injector);
}

const FaultCounters& LockstepCore::domain_faults(
    std::uint32_t committee) const {
  return const_cast<LockstepCore*>(this)->domain(committee).ledger.faults;
}

LockstepCore::DomainLedger LockstepCore::domain_ledger(
    std::uint32_t committee) const {
  std::lock_guard lk(mu_);
  return const_cast<LockstepCore*>(this)->domain(committee).ledger;
}

LockstepCore::DomainLedger LockstepCore::totals() const {
  std::lock_guard lk(mu_);
  DomainLedger sum = default_domain_.ledger;
  for (const auto& d : domains_) {
    sum.comm += d->ledger.comm;
    sum.faults += d->ledger.faults;
    sum.stale += d->ledger.stale;
    sum.foreign += d->ledger.foreign;
    sum.decode += d->ledger.decode;
    sum.slow += d->ledger.slow;
    sum.banned += d->ledger.banned;
  }
  return sum;
}

void LockstepCore::set_misbehavior_manager(
    std::shared_ptr<MisbehaviorManager> mgr) {
  std::lock_guard lk(mu_);
  DPRBG_CHECK(!running_);
  if (mgr != nullptr) DPRBG_CHECK(mgr->n() == n_);
  // The replaced manager is released with `mgr`, after mu_: its
  // telemetry view unregisters under the collector mutex, which a
  // snapshot takes before mu_.
  misbehavior_.swap(mgr);
}

void LockstepCore::note_decode_failure(const PartyIo& reporter, int from) {
  if (from < 0 || from >= n_ || from == reporter.id()) return;
  std::lock_guard lk(mu_);
  Domain& dom = domain_of(reporter.stream());
  ++dom.ledger.decode;
  if (tracer().enabled()) {
    // Round stamp: the stream's exchange count (the inbox being decoded
    // was delivered by the latest exchange).
    trace_point("net", "decode_reject", reporter.id(),
                streams_.at(reporter.stream()).exchange_index,
                "from=" + std::to_string(from),
                reporter.stream() - dom.first_stream, dom.committee);
  }
  if (misbehavior_ != nullptr) {
    // Receiver-attributed: carries the reporter so the policy's decode
    // reporter quorum (>= t+1 distinct witnesses before scoring) can
    // discount a lone Byzantine framer.
    misbehavior_->report_decode(from, reporter.id());
  }
}

void LockstepCore::collect(ViewSink& sink) const {
  std::lock_guard lk(mu_);
  const auto domain_view = [&sink](const Domain& d) {
    const std::string l = "committee=" + std::to_string(d.committee);
    const DomainLedger& led = d.ledger;
    sink.counter("net_domain_messages_total", l, led.comm.messages);
    sink.counter("net_domain_bytes_total", l, led.comm.bytes);
    sink.counter("net_stale_rejections_total", l, led.stale);
    sink.counter("net_foreign_rejections_total", l, led.foreign);
    sink.counter("net_fault_effects_total", l, led.faults.total());
    sink.counter("net_decode_rejections_total", l, led.decode);
    sink.counter("net_slow_envelopes_total", l, led.slow);
    sink.counter("net_banned_suppressed_total", l, led.banned);
  };
  domain_view(default_domain_);
  for (const auto& d : domains_) domain_view(*d);
  for (std::size_t i = 0; i < player_comm_.size(); ++i) {
    const std::string l = "player=" + std::to_string(i);
    sink.counter("net_player_messages_total", l, player_comm_[i].messages);
    sink.counter("net_player_bytes_total", l, player_comm_[i].bytes);
  }
}

std::vector<CommCounters> LockstepCore::per_player_comm() const {
  std::vector<CommCounters> out(static_cast<std::size_t>(n_));
  for (const auto& [key, io] : handles_) {
    out[static_cast<std::size_t>(key.first)] += io->sent();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Exchange: admit, fault routing, comm charging and delivery.

LockstepCore::Exchange::Exchange(LockstepCore& core, RoundStream& st)
    : core_(core),
      st_(st),
      dom_(*st.domain),
      round_(st.exchange_index++),
      inj_(dom_.injector != nullptr ? dom_.injector.get()
                                    : core.injector_.get()),
      mgr_(core.misbehavior_.get()),
      trace_on_(tracer().enabled()),
      local_batch_(st.id - dom_.first_stream) {
  // Clearing up front also drops leftovers admitted last round for
  // members that never joined (deliver() skips those).
  core_.exchange_scratch_.resize(static_cast<std::size_t>(core_.n_));
  for (auto& v : core_.exchange_scratch_) v.clear();
  if (inj_ == nullptr) return;
  // Delay-fault arrivals merge in ahead of this round's fresh traffic;
  // the (from, tag) stable sort interleaves them deterministically. Each
  // is, by construction, at least one round late — the barrier-stall
  // observation the misbehavior layer scores as kSlowEnvelope, charged
  // to the sender (delays on a link are attributed to the charged
  // player).
  const auto due = st_.delayed.find(round_);
  if (due == st_.delayed.end()) return;
  for (auto& d : due->second) {
    ++dom_.ledger.slow;
    if (mgr_ != nullptr) {
      mgr_->report(d.msg.from, MisbehaviorSignal::kSlowEnvelope);
    }
    admit(d.to, std::move(d.msg));
  }
  st_.delayed.erase(due);
}

void LockstepCore::Exchange::charge(PartyIo& sender) {
  const CommCounters delta = sender.sent_ - sender.charged_;
  sent_ += delta;
  core_.player_comm_[static_cast<std::size_t>(sender.id_)] += delta;
  sender.charged_ = sender.sent_;
}

void LockstepCore::Exchange::route(int to, Msg&& msg) {
  // Self-deliveries are not links and are never faulted.
  if (inj_ == nullptr || to == msg.from) {
    admit(to, std::move(msg));
    return;
  }
  FaultCounters& faults = dom_.ledger.faults;
  const FaultCounters before = faults;
  const int from = msg.from;
  const std::uint32_t tag = msg.tag;
  std::vector<Msg> routed;
  inj_->route(round_, to, std::move(msg), routed, st_.delayed, faults);
  for (Msg& m : routed) admit(to, std::move(m));
  const FaultCounters delta = faults - before;
  if (delta.total() == 0 || !trace_on_) return;
  TraceEvent ev;
  ev.kind = TraceEventKind::kPoint;
  ev.protocol = "net";
  ev.phase = "fault";
  ev.player = to;
  ev.batch = local_batch_;
  ev.committee = dom_.committee;
  ev.round_begin = ev.round_end = round_;
  ev.faults = delta;
  ev.detail = "from=" + std::to_string(from) + " tag=" + std::to_string(tag);
  tracer().record(std::move(ev));
}

void LockstepCore::Exchange::admit(int to, Msg&& msg) {
  const AdmitVerdict verdict = classify_envelope(
      msg, to, st_.id, [this](int p) { return in_roster(dom_, p); }, mgr_);
  DomainLedger& led = dom_.ledger;
  switch (verdict) {
    case AdmitVerdict::kDeliver:
      core_.exchange_scratch_[static_cast<std::size_t>(to)].push_back(
          std::move(msg));
      return;
    case AdmitVerdict::kStale:
      if (mgr_ != nullptr) {
        mgr_->report(msg.from, MisbehaviorSignal::kStaleFlood);
      }
      ++led.stale;
      break;
    case AdmitVerdict::kForeign:
      if (mgr_ != nullptr) {
        mgr_->report(msg.from, MisbehaviorSignal::kForeignTraffic);
      }
      ++led.foreign;
      break;
    case AdmitVerdict::kBanned:
      // Suppression is an effect of standing, not a fresh observation,
      // so it scores nothing; the manager only counts it.
      ++led.banned;
      mgr_->note_suppressed(msg.from);
      break;
  }
  if (trace_on_) {
    std::string detail = "from=" + std::to_string(msg.from);
    if (verdict == AdmitVerdict::kStale) {
      detail += " batch=" + std::to_string(msg.batch);
    }
    trace_point("net", to_string(verdict), to, round_, std::move(detail),
                local_batch_, dom_.committee);
  }
}

void LockstepCore::Exchange::deliver() {
  sent_.rounds = 1;  // one exchange; the senders' own counts are theirs
  dom_.ledger.comm += sent_;
  if (trace_on_) {
    // Round-advance marker, stamped with the exchange's charged totals.
    TraceEvent ev;
    ev.kind = TraceEventKind::kPoint;
    ev.protocol = "net";
    ev.phase = "round";
    ev.player = -1;
    ev.batch = local_batch_;
    ev.committee = dom_.committee;
    ev.round_begin = ev.round_end = round_;
    ev.comm = sent_;
    tracer().record(std::move(ev));
  }
  for (int i = 0; i < core_.n_; ++i) {
    PartyIo* p = st_.members[static_cast<std::size_t>(i)];
    if (p == nullptr || !in_roster(dom_, i)) continue;
    // Canonical lockstep order: stable by arrival (per-sender send order,
    // senders ascending), sorted by (from, tag) so same-sender same-tag
    // duplicates stay adjacent in send order. Protocol determinism — "the
    // first message from sender s with tag t" — rests on this.
    std::vector<Msg>& msgs =
        core_.exchange_scratch_[static_cast<std::size_t>(i)];
    std::stable_sort(msgs.begin(), msgs.end(), [](const Msg& a, const Msg& b) {
      return a.from != b.from ? a.from < b.from : a.tag < b.tag;
    });
    p->inbox_ = Inbox{std::move(msgs)};
  }
}

}  // namespace dprbg
