// TimedIo: a NetEndpoint that wraps a transport handle (the simulated
// PartyIo or the socket TcpPartyIo) and times every call a protocol makes
// into it, from outside the library.
//
// Per (player, stream) handle it records, for each completed sync(), the
// player's compute time since the previous sync returned, the time spent
// inside send()/send_all() and the time parked inside sync(). Siblings
// opened through instance() are wrapped too, so a pipelined Coin-Gen run
// is timed on every round stream it touches.
//
// Phase times come from the library's existing TraceSpans: the partial
// specialisation of dprbg::TraceSpan at the end of this file is what a
// protocol instantiated over TimedIo opens. It forwards to the ordinary
// TraceSpan of the wrapped handle (so the recorded trace is unchanged)
// and stamps open/close times on the wrapper, which turns each span's
// round range into a wall time, a transport time and a compute time.
// Include this header before any protocol header is instantiated over
// TimedIo, or the specialisation is not seen.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "net/endpoint.h"

namespace coinbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// One completed sync() on one (player, stream) handle.
struct RoundTiming {
  std::uint32_t stream = 0;
  std::uint64_t round = 0;       // rounds() before the sync
  std::uint64_t compute_ns = 0;  // outside the transport since the last sync
  std::uint64_t send_ns = 0;     // inside send()/send_all() this round
  std::uint64_t sync_ns = 0;     // inside sync()
};

// Totals of the TraceSpans one (protocol, phase) opened on wrapped handles.
struct PhaseTiming {
  std::uint64_t spans = 0;
  std::uint64_t rounds = 0;
  std::uint64_t compute_ns = 0;  // wall minus time inside the transport
  dprbg::FieldCounters ops;

  PhaseTiming& operator+=(const PhaseTiming& o) {
    spans += o.spans;
    rounds += o.rounds;
    compute_ns += o.compute_ns;
    ops += o.ops;
    return *this;
  }
};
using PhaseTable = std::map<std::pair<std::string, std::string>, PhaseTiming>;

// Everything the wrappers of one player recorded.
struct TimedRecords {
  std::vector<RoundTiming> rounds;
  PhaseTable phases;
  // Wall time of each Coin-Gen batch: the sum of its coin-gen spans.
  std::vector<std::uint64_t> coin_gen_ns;
};

template <dprbg::NetEndpoint Io>
class TimedIo {
 public:
  explicit TimedIo(Io& io) : TimedIo(io, this) {}
  TimedIo(const TimedIo&) = delete;
  TimedIo& operator=(const TimedIo&) = delete;

  [[nodiscard]] int id() const { return io_.id(); }
  [[nodiscard]] int n() const { return io_.n(); }
  [[nodiscard]] int t() const { return io_.t(); }
  [[nodiscard]] dprbg::Chacha& rng() { return io_.rng(); }
  [[nodiscard]] std::uint32_t stream() const { return io_.stream(); }
  [[nodiscard]] std::uint32_t committee() const { return io_.committee(); }

  // May be called from pipeline worker threads concurrently; siblings are
  // owned by the root wrapper.
  TimedIo& instance(std::uint32_t batch) {
    Io& inner = io_.instance(batch);
    if (&inner == &io_) return *this;
    return root_->sibling(inner);
  }

  void send(int to, std::uint32_t tag, std::vector<std::uint8_t> body) {
    const auto t0 = Clock::now();
    io_.send(to, tag, std::move(body));
    send_ns_ += ns_between(t0, Clock::now());
  }
  void send_all(std::uint32_t tag, const std::vector<std::uint8_t>& body) {
    const auto t0 = Clock::now();
    io_.send_all(tag, body);
    send_ns_ += ns_between(t0, Clock::now());
  }

  const dprbg::Inbox& sync() {
    const std::uint64_t round = io_.rounds();
    const auto t0 = Clock::now();
    const dprbg::Inbox& in = io_.sync();
    const auto t1 = Clock::now();
    const std::uint64_t busy = ns_between(mark_, t0);
    const std::uint64_t sync_ns = ns_between(t0, t1);
    rounds_.push_back({io_.stream(), round, busy - std::min(busy, send_ns_),
                       send_ns_, sync_ns});
    transport_ns_ += send_ns_ + sync_ns;
    send_ns_ = 0;
    mark_ = t1;
    return in;
  }
  [[nodiscard]] const dprbg::Inbox& inbox() const { return io_.inbox(); }
  void note_decode_failure(int from) { io_.note_decode_failure(from); }
  [[nodiscard]] const dprbg::CommCounters& sent() const { return io_.sent(); }
  [[nodiscard]] std::uint64_t rounds() const { return io_.rounds(); }

  // ---- bench side ----
  [[nodiscard]] Io& inner() { return io_; }
  // The harness did its own work since the last sync: restart the
  // compute clock so that work is not charged to the protocol.
  void rest() {
    mark_ = Clock::now();
    send_ns_ = 0;
  }
  // Cumulative time this handle spent inside send()/send_all()/sync().
  [[nodiscard]] std::uint64_t transport_ns() const {
    return transport_ns_ + send_ns_;
  }

  std::size_t span_open(std::string_view protocol, std::string_view phase) {
    open_.push_back({std::string(protocol), std::string(phase), Clock::now(),
                     transport_ns(), io_.rounds(), dprbg::field_counters(),
                     true});
    return open_.size() - 1;
  }
  void span_close(std::size_t token) {
    OpenSpan& s = open_[token];
    const std::uint64_t wall = ns_between(s.t0, Clock::now());
    const std::uint64_t transport = transport_ns() - s.transport0;
    if (s.protocol == "coin-gen") {
      // deal is every batch's first coin-gen span.
      if (s.phase == "deal") coin_gen_ns_.push_back(0);
      if (!coin_gen_ns_.empty()) coin_gen_ns_.back() += wall;
    }
    PhaseTiming& p = phases_[{s.protocol, s.phase}];
    ++p.spans;
    p.rounds += io_.rounds() - s.round0;
    p.compute_ns += wall - std::min(wall, transport);
    p.ops += dprbg::field_counters() - s.ops0;
    s.live = false;
    while (!open_.empty() && !open_.back().live) open_.pop_back();
  }

  // This handle's and every sibling's records; call after the run.
  void collect(TimedRecords& out) const {
    out.rounds.insert(out.rounds.end(), rounds_.begin(), rounds_.end());
    for (const auto& [key, p] : phases_) out.phases[key] += p;
    out.coin_gen_ns.insert(out.coin_gen_ns.end(), coin_gen_ns_.begin(),
                           coin_gen_ns_.end());
    for (const auto& [inner, sib] : siblings_) sib->collect(out);
  }

 private:
  struct OpenSpan {
    std::string protocol;
    std::string phase;
    Clock::time_point t0;
    std::uint64_t transport0 = 0;
    std::uint64_t round0 = 0;
    dprbg::FieldCounters ops0;
    bool live = false;
  };

  TimedIo(Io& io, TimedIo* root) : io_(io), root_(root), mark_(Clock::now()) {}

  TimedIo& sibling(Io& inner) {
    std::lock_guard g(siblings_mu_);
    std::unique_ptr<TimedIo>& slot = siblings_[&inner];
    if (!slot) slot.reset(new TimedIo(inner, this));
    return *slot;
  }

  Io& io_;
  TimedIo* root_;
  Clock::time_point mark_;
  std::uint64_t send_ns_ = 0;
  std::uint64_t transport_ns_ = 0;
  std::vector<RoundTiming> rounds_;
  std::vector<OpenSpan> open_;
  PhaseTable phases_;
  std::vector<std::uint64_t> coin_gen_ns_;
  std::mutex siblings_mu_;
  std::map<const Io*, std::unique_ptr<TimedIo>> siblings_;
};

// Restarts the compute clock of a wrapped handle; a no-op on a bare one.
template <typename Io>
void rest(Io& io) {
  if constexpr (requires { io.rest(); }) io.rest();
}

}  // namespace coinbench

namespace dprbg {

// The span a protocol opens on a TimedIo: the library's own span on the
// wrapped handle (same record, same deltas) plus wall-clock stamps on the
// wrapper while the tracer is on.
template <typename Io>
class TraceSpan<coinbench::TimedIo<Io>> {
 public:
  TraceSpan(coinbench::TimedIo<Io>& io, std::string_view protocol,
            std::string_view phase, std::string detail = {})
      : io_(io), inner_(io.inner(), protocol, phase, std::move(detail)) {
    if (tracer().enabled()) {
      token_ = io.span_open(protocol, phase);
      live_ = true;
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() { close(); }

  void close() {
    inner_.close();
    if (!live_) return;
    live_ = false;
    io_.span_close(token_);
  }

 private:
  coinbench::TimedIo<Io>& io_;
  TraceSpan<Io> inner_;
  std::size_t token_ = 0;
  bool live_ = false;
};

}  // namespace dprbg
