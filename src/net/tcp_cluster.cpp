#include "net/tcp_cluster.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/trace.h"

namespace dprbg {

namespace {

// Stream ids are bounded by the core's handle check (batch <= 0xFFFF,
// which caps per-peer stream allocation and makes a DPrbg batch-id wrap
// fail loudly); a frame claiming a stream beyond the bound is a
// violation, which also caps how many StreamStates a hostile peer can
// make us allocate.
constexpr std::uint32_t kTcpMaxStreamId = 0xFFFF;

int poll_one(int fd, short events, int timeout_ms) {
  pollfd p{};
  p.fd = fd;
  p.events = events;
  for (;;) {
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (rc == 0) return 0;
    return p.revents;
  }
}

}  // namespace

std::uint64_t roster_hash(int n, int t,
                          const std::vector<TcpNodeAddr>& roster) {
  // FNV-1a, 64-bit.
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  };
  const auto mix_u32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) mix(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  mix_u32(static_cast<std::uint32_t>(n));
  mix_u32(static_cast<std::uint32_t>(t));
  for (const TcpNodeAddr& a : roster) {
    for (char c : a.host) mix(static_cast<std::uint8_t>(c));
    mix(static_cast<std::uint8_t>(a.port & 0xFF));
    mix(static_cast<std::uint8_t>(a.port >> 8));
    mix(0);  // entry separator
  }
  return h;
}

// ---------------------------------------------------------------------------
// TcpCluster.

TcpCluster::TcpCluster(int id, int n, int t, std::uint64_t seed,
                       std::vector<TcpNodeAddr> roster,
                       TcpClusterOptions opts)
    : LockstepCore(n, t, seed),
      id_(id),
      roster_(std::move(roster)),
      opts_(opts),
      roster_hash_(roster_hash(n, t, roster_)),
      peers_(static_cast<std::size_t>(n)) {
  DPRBG_CHECK(id_ >= 0 && id_ < n);
  DPRBG_CHECK(static_cast<int>(roster_.size()) == n);
  lapsed_.assign(static_cast<std::size_t>(n), 0);
  bye_.assign(static_cast<std::size_t>(n), 0);
  handle(id_, 0);
}

TcpCluster::~TcpCluster() {
  stop_.store(true, std::memory_order_release);
  cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& p : peers_) {
    if (p != nullptr) p->stop();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

bool TcpCluster::start() {
  DPRBG_CHECK(!started_);
  started_ = true;
  if (opts_.listen_fd >= 0) {
    listen_fd_ = opts_.listen_fd;
  } else {
    std::string err;
    listen_fd_ = tcp_listen_socket(roster_[static_cast<std::size_t>(id_)].host,
                                   roster_[static_cast<std::size_t>(id_)].port,
                                   &err);
    DPRBG_CHECK(listen_fd_ >= 0);
  }
  listen_port_ = tcp_local_port(listen_fd_);

  PeerOptions popts;
  popts.connect_timeout_ms = opts_.connect_timeout_ms;
  popts.handshake_timeout_ms = opts_.handshake_timeout_ms;
  popts.read_poll_ms = opts_.read_poll_ms;
  popts.backoff_initial_ms = opts_.backoff_initial_ms;
  popts.backoff_max_ms = opts_.backoff_max_ms;
  popts.local_hello.proto_version = kTcpProtoVersion;
  popts.local_hello.wire_version = static_cast<std::uint8_t>(wire_version());
  popts.local_hello.roster_hash = roster_hash_;
  popts.local_hello.node_id = static_cast<std::uint32_t>(id_);
  popts.local_hello.n = static_cast<std::uint32_t>(n());

  PeerCallbacks cb;
  cb.on_frame = [this](int peer, FrameType type,
                       std::vector<std::uint8_t> payload) {
    on_frame(peer, type, std::move(payload));
  };
  cb.on_up = [this](int, bool) { on_peer_up(); };
  cb.on_down = [this](int peer) { on_peer_down(peer); };

  {
    std::lock_guard lk(mu_);  // stats() and the telemetry view read peers_
    for (int j = 0; j < n(); ++j) {
      if (j == id_) continue;
      const auto role =
          j < id_ ? TcpPeer::Role::kDialer : TcpPeer::Role::kListener;
      peers_[static_cast<std::size_t>(j)] = std::make_unique<TcpPeer>(
          id_, j, roster_[static_cast<std::size_t>(j)].host,
          roster_[static_cast<std::size_t>(j)].port, role, popts, cb);
    }
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  for (auto& p : peers_) {
    if (p != nullptr) p->start();
  }

  const auto all_up = [this] {
    for (const auto& p : peers_) {
      if (p != nullptr && !p->up()) return false;
    }
    return true;
  };
  std::unique_lock lk(mu_);
  return cv_.wait_for(lk, std::chrono::milliseconds(opts_.start_timeout_ms),
                      [&] { return all_up() || stop_.load(); }) &&
         all_up();
}

void TcpCluster::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    const int rev = poll_one(listen_fd_, POLLIN, 100);
    if (rev < 0) return;
    if (rev == 0) continue;
    if ((rev & POLLIN) == 0) return;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;
    }
    if (!accept_handshake(fd)) ::close(fd);
  }
}

bool TcpCluster::accept_handshake(int fd) {
  FrameType type{};
  std::vector<std::uint8_t> payload;
  const TcpReadStatus st =
      tcp_read_frame(fd, stop_, opts_.read_poll_ms, kTcpMaxFrameBytes, &type,
                     &payload, opts_.handshake_timeout_ms);
  HandshakeReject why = HandshakeReject::kMalformed;
  int peer = -1;
  if (st == TcpReadStatus::kOk && type == FrameType::kHello) {
    if (const auto h = decode_hello(payload); !h) {
      why = HandshakeReject::kMalformed;
    } else if (h->proto_version != kTcpProtoVersion) {
      why = HandshakeReject::kProtoVersion;
    } else if (h->wire_version != static_cast<std::uint8_t>(wire_version())) {
      why = HandshakeReject::kWireVersion;
    } else if (h->roster_hash != roster_hash_) {
      why = HandshakeReject::kRosterHash;
    } else if (h->n != static_cast<std::uint32_t>(n()) ||
               h->node_id >= static_cast<std::uint32_t>(n()) ||
               static_cast<int>(h->node_id) <= id_) {
      // Higher ids dial lower ids: an inbound claim of a lower-or-equal
      // id is either an impostor or a miswired roster.
      why = HandshakeReject::kBadId;
    } else {
      peer = static_cast<int>(h->node_id);
    }
  }
  if (peer < 0) {
    std::lock_guard lk(mu_);
    ++accept_rejects_[static_cast<std::size_t>(why)];
    return false;
  }
  HelloFrame ack;
  ack.proto_version = kTcpProtoVersion;
  ack.wire_version = static_cast<std::uint8_t>(wire_version());
  ack.roster_hash = roster_hash_;
  ack.node_id = static_cast<std::uint32_t>(id_);
  ack.n = static_cast<std::uint32_t>(n());
  if (!tcp_write_all(fd, frame_bytes(FrameType::kHelloAck,
                                     encode_hello(ack)))) {
    return false;
  }
  peers_[static_cast<std::size_t>(peer)]->adopt(fd);
  return true;
}

void TcpCluster::on_peer_up() {
  // The peer counts its own connects; start() only needs a wake-up.
  // Taking mu_ first keeps it from being lost between a waiter's
  // predicate check and its wait.
  { std::lock_guard lk(mu_); }
  cv_.notify_all();
}

void TcpCluster::on_peer_down(int peer) {
  {
    std::lock_guard lk(mu_);
    if (running_) {
      // Latched for the rest of the run: the process behind this link is
      // mid-restart, and lockstep state cannot absorb a rejoin. Barriers
      // stop waiting for it — the transport twin of Cluster::drop().
      lapsed_[static_cast<std::size_t>(peer)] = 1;
    }
  }
  cv_.notify_all();
}

TcpCluster::StreamState& TcpCluster::stream_state_locked(
    std::uint32_t stream) {
  StreamState& st = streams_[stream];
  if (st.next_round.empty()) {
    st.next_round.assign(static_cast<std::size_t>(n()), 0);
    st.pending.resize(static_cast<std::size_t>(n()));
  }
  return st;
}

void TcpCluster::reject_frame(int peer) {
  {
    std::lock_guard lk(mu_);
    ++frame_decode_failures_;
  }
  if (misbehavior() != nullptr) misbehavior()->report_decode(peer, id_);
  peers_[static_cast<std::size_t>(peer)]->sever();
}

void TcpCluster::on_frame(int peer, FrameType type,
                          std::vector<std::uint8_t> payload) {
  if (type == FrameType::kBye) {
    {
      std::lock_guard lk(mu_);
      bye_[static_cast<std::size_t>(peer)] = 1;
    }
    cv_.notify_all();
    return;
  }
  // Hello/HelloAck after the handshake (or an unknown type) is a framing
  // violation. So is a round frame we cannot attribute to a (stream,
  // round): it cannot be turned into a barrier marker, so the only safe
  // response is to cut the connection — the peer lapses and barriers
  // proceed without it (leaving it connected would park every barrier
  // forever).
  if (type != FrameType::kRound) return reject_frame(peer);
  auto frame = decode_round_frame(payload, peer, kTcpMaxFrameBytes);
  if (!frame || frame->stream > kTcpMaxStreamId) return reject_frame(peer);
  bool notify = false;
  {
    std::lock_guard lk(mu_);
    if (lapsed_[static_cast<std::size_t>(peer)] ||
        bye_[static_cast<std::size_t>(peer)]) {
      // Transport reconnected but the run moved on without this peer;
      // its fresh traffic has no round to join.
      ++lapsed_frames_;
    } else {
      StreamState& st = stream_state_locked(frame->stream);
      std::uint64_t& next = st.next_round[static_cast<std::size_t>(peer)];
      if (frame->round != next) {
        // One ordered connection + sequential per-stream rounds means an
        // honest sender can only ever deliver the contiguous next round;
        // anything else is a replay/skip attack. Dropping (instead of
        // buffering) also bounds demux memory.
        ++lapsed_frames_;
        if (misbehavior() != nullptr) {
          misbehavior()->report(peer, MisbehaviorSignal::kStaleFlood);
        }
      } else {
        ++next;
        if (!frame->msgs.empty()) {
          buffered_msgs_ += frame->msgs.size();
          st.pending[static_cast<std::size_t>(peer)][frame->round] =
              std::move(frame->msgs);
        }
        notify = true;
      }
    }
  }
  if (notify) cv_.notify_all();
}

void TcpCluster::link_sync(PartyIo& io) {
  const std::uint32_t stream = io.stream();
  const std::uint64_t round = io.rounds();
  const int n = this->n();

  // Partition this round's staged envelopes by destination, preserving
  // send order; self-deliveries stay local (never touch a socket).
  std::vector<std::vector<Msg>> outgoing(static_cast<std::size_t>(n));
  for (auto& env : io.staged_) {
    outgoing[static_cast<std::size_t>(env.to)].push_back(std::move(env.msg));
  }
  io.staged_.clear();
  // Ship one bundle per peer — empty ones included; they are the round
  // barrier markers. A bundle for a down peer is dropped by the peer's
  // queue (and the peer is or becomes lapsed, so the barrier will not
  // wait for its half either).
  for (int j = 0; j < n; ++j) {
    if (j == id_) continue;
    const auto payload = encode_round_frame(
        stream, round, outgoing[static_cast<std::size_t>(j)]);
    peers_[static_cast<std::size_t>(j)]->enqueue(
        frame_bytes(FrameType::kRound, payload));
  }

  std::unique_lock lk(mu_);
  StreamState& st = stream_state_locked(stream);
  const auto ready = [&] {
    if (stop_.load(std::memory_order_acquire)) return true;
    for (int j = 0; j < n; ++j) {
      if (j == id_) continue;
      if (st.next_round[static_cast<std::size_t>(j)] > round) continue;
      if (lapsed_[static_cast<std::size_t>(j)] != 0) continue;
      if (bye_[static_cast<std::size_t>(j)] != 0) continue;
      return false;
    }
    return true;
  };
  if (!ready()) {
    TelemetryClock::time_point t0;
    const bool tel_on = telemetry_enabled();
    if (tel_on) t0 = TelemetryClock::now();
    cv_.wait(lk, ready);
    if (tel_on) {
      if (tel_barrier_wait_ == nullptr) {
        tel_barrier_wait_ = &metrics().histogram(
            "net_tcp_barrier_wait_us", "node=" + std::to_string(id_));
      }
      tel_barrier_wait_->observe(telemetry_elapsed_us(t0));
    }
  }

  // Feed the core exactly as the in-process link does: senders
  // ascending, each in its send order.
  Exchange ex(*this, round_stream(stream));
  ex.charge(io);
  for (int j = 0; j < n; ++j) {
    if (j == id_) {
      for (Msg& m : outgoing[static_cast<std::size_t>(j)]) {
        ex.route(id_, std::move(m));
      }
      continue;
    }
    auto& per_sender = st.pending[static_cast<std::size_t>(j)];
    const auto it = per_sender.find(round);
    if (it == per_sender.end()) continue;
    buffered_msgs_ -= it->second.size();
    for (Msg& m : it->second) ex.route(id_, std::move(m));
    per_sender.erase(it);
  }
  ex.deliver();
}

void TcpCluster::run(const Program& program) {
  DPRBG_CHECK(started_);
  PartyIo& root = this->root();
  {
    std::lock_guard lk(mu_);
    DPRBG_CHECK(!running_);
    running_ = true;
  }
  std::exception_ptr err;
  try {
    program(root);
  } catch (...) {
    err = std::current_exception();
  }
  // Announce completion and linger: peers must not wait on our barriers
  // (kBye), and the final round frames must reach the wire before the
  // sockets die. This runs on the exception path too — a crashed program
  // is exactly when remote barriers most need the release.
  for (auto& p : peers_) {
    if (p != nullptr) p->enqueue(frame_bytes(FrameType::kBye, {}));
  }
  for (auto& p : peers_) {
    if (p != nullptr) p->flush(opts_.drain_timeout_ms);
  }
  {
    // Our send queues being empty says nothing about the peers' ends of
    // the run: wait until each peer has said Bye or lapsed (lapses are
    // only latched while running_), so the run is over on every link.
    std::unique_lock lk(mu_);
    cv_.wait_for(lk, std::chrono::milliseconds(opts_.drain_timeout_ms), [&] {
      for (int j = 0; j < n(); ++j) {
        if (j != id_ && !bye_[static_cast<std::size_t>(j)] &&
            !lapsed_[static_cast<std::size_t>(j)]) {
          return stop_.load();
        }
      }
      return true;
    });
    running_ = false;
  }
  if (err) std::rethrow_exception(err);
}

TcpStats TcpCluster::stats() const {
  const DomainLedger led = totals();
  TcpStats out;
  out.peers.resize(static_cast<std::size_t>(n()));
  std::lock_guard lk(mu_);
  for (int j = 0; j < n(); ++j) {
    const TcpPeer* p = peers_[static_cast<std::size_t>(j)].get();
    if (p == nullptr) continue;
    TcpStats::PeerStats& ps = out.peers[static_cast<std::size_t>(j)];
    ps.up = p->up();
    ps.lapsed = lapsed_[static_cast<std::size_t>(j)] != 0;
    ps.bye = bye_[static_cast<std::size_t>(j)] != 0;
    ps.connects = p->connects();
    ps.reconnects = p->reconnects();
    ps.handshake_rejects = p->handshake_rejects();
    ps.tx_frames = p->tx_frames();
    ps.tx_bytes = p->tx_bytes();
    ps.rx_frames = p->rx_frames();
    ps.rx_bytes = p->rx_bytes();
    ps.dropped_frames = p->dropped_frames();
  }
  for (std::size_t r = 0; r < kHandshakeRejectReasons; ++r) {
    out.accept_rejects[r] = accept_rejects_[r];
  }
  out.frame_decode_failures = frame_decode_failures_;
  out.lapsed_frames = lapsed_frames_;
  out.stale_rejections = led.stale;
  out.foreign_rejections = led.foreign;
  out.decode_rejections = led.decode;
  out.banned_suppressions = led.banned;
  out.recv_pending = buffered_msgs_;
  return out;
}

void TcpCluster::sever_peer(int peer) {
  if (peer < 0 || peer >= n() || peer == id_) return;
  TcpPeer* p = peers_[static_cast<std::size_t>(peer)].get();
  if (p != nullptr) p->sever();
}

void TcpCluster::collect(ViewSink& sink) const {
  std::lock_guard lk(mu_);
  for (int j = 0; j < n(); ++j) {
    const TcpPeer* p = peers_[static_cast<std::size_t>(j)].get();
    if (p == nullptr) continue;
    const std::string l =
        "node=" + std::to_string(id_) + ",peer=" + std::to_string(j);
    sink.counter("net_tcp_connects_total", l, p->connects());
    sink.counter("net_tcp_reconnects_total", l, p->reconnects());
    sink.counter("net_tcp_tx_bytes_total", l, p->tx_bytes());
    sink.counter("net_tcp_rx_bytes_total", l, p->rx_bytes());
  }
  sink.gauge("net_tcp_recv_pending", "node=" + std::to_string(id_),
             static_cast<std::int64_t>(buffered_msgs_));
}

// ---------------------------------------------------------------------------
// TcpLoopback.

TcpLoopback::TcpLoopback(int n, int t, std::uint64_t seed,
                         TcpClusterOptions opts) {
  DPRBG_CHECK(n >= 1);
  // Two-phase: bind all n listen sockets first so the full roster (and
  // hence the hash every handshake checks) exists before any node does.
  std::vector<int> fds(static_cast<std::size_t>(n), -1);
  roster_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string err;
    fds[static_cast<std::size_t>(i)] = tcp_listen_socket("127.0.0.1", 0, &err);
    DPRBG_CHECK(fds[static_cast<std::size_t>(i)] >= 0);
    roster_[static_cast<std::size_t>(i)] = TcpNodeAddr{
        "127.0.0.1", tcp_local_port(fds[static_cast<std::size_t>(i)])};
  }
  nodes_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    TcpClusterOptions o = opts;
    o.listen_fd = fds[static_cast<std::size_t>(i)];
    nodes_.push_back(
        std::make_unique<TcpCluster>(i, n, t, seed, roster_, o));
  }
}

bool TcpLoopback::start() {
  // Each node's start() blocks until its own links are up, so they must
  // run concurrently (a dialer cannot finish before its listener runs).
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  threads.reserve(nodes_.size());
  for (auto& node : nodes_) {
    threads.emplace_back([&ok, &node] {
      if (node->start()) ok.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  return ok.load() == static_cast<int>(nodes_.size());
}

void TcpLoopback::run(std::vector<TcpCluster::Program> programs) {
  DPRBG_CHECK(programs.size() == nodes_.size());
  std::exception_ptr first_error;
  std::mutex error_mu;
  std::vector<std::thread> threads;
  threads.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        nodes_[i]->run(programs[i]);
      } catch (...) {
        std::lock_guard g(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& th : threads) th.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace dprbg
