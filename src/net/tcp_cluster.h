// The real-socket NetEndpoint backend: one process per player, TCP
// between them, and a round barrier that recreates the simulated
// cluster's lockstep contract on top of asynchronous frame arrival.
//
// One `TcpCluster` object is ONE player's half of an n-node deployment:
// it owns the player's listen socket, the n-1 `TcpPeer` connections
// (deterministic roles — this node dials every lower id and accepts
// every higher id, so each pair has exactly one link), the handshake
// (roster hash + framing/wire versions + claimed id, all validated on
// both ends), and the demux that turns arriving kRound frames back into
// the per-(stream, round) inboxes the protocols expect.
//
// Everything the lockstep contract consists of — handles, randomness,
// admit, ledgers, comm charging and inbox order — is the shared core
// (net/lockstep.h), so a protocol templated on NetEndpoint produces
// BIT-FOR-BIT the same transcript here as over the simulated Cluster at
// the same (n, t, seed). This link's one job is to make each node's
// exchange see the same per-sender send sequences: round r's sync()
// ships one kRound bundle per peer (sent even when empty — it is the
// barrier marker), waits until every non-lapsed peer's bundle for
// (stream, r) has arrived, and feeds the core senders ascending, each in
// its send order. Physical frame bytes (length prefix, bundle header)
// appear only in TcpStats and the net_tcp_* telemetry view, never in
// comm().
//
// Failure semantics: a peer whose connection dies while a run is active
// is "lapsed" — permanently, for that run. Barriers stop waiting for it
// (exactly like Cluster::drop on a crashed program), frames it managed
// to deliver earlier still count, and a later reconnect restores the
// TRANSPORT only: the process that comes back is mid-protocol-restart
// and its fresh traffic is dropped (counted in TcpStats::lapsed_frames)
// rather than spliced into rounds it never participated in. Protocol
// rejoin is an epoch/reconfiguration concern (net/reconfig.h), not a
// transport one. A peer that finishes its program cleanly announces it
// with a kBye frame — the graceful twin of lapsing.
//
// Thread model: n threads per node — one link thread per peer (dial or
// await the accepted socket, then read frames into the demux under one
// mutex) and one accept thread. Round frames are written on the protocol
// thread that calls sync(); any number of protocol threads (the
// pipelined scheduler drives one stream per worker) write under each
// peer's write mutex and block in sync() on the demux mutex's condition
// variable. A peer that stops reading stalls a write for at most
// kTcpWriteStallMs; then its link is severed and it lapses, so memory
// stays bounded. See DESIGN.md §16.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/telemetry.h"
#include "net/endpoint.h"
#include "net/framing.h"
#include "net/lockstep.h"
#include "net/misbehavior.h"
#include "net/msg.h"
#include "net/peer.h"
#include "rng/chacha.h"

namespace dprbg {

struct TcpNodeAddr {
  std::string host;
  std::uint16_t port = 0;
};

// FNV-1a over (n, t, every "host:port") — both ends of a handshake must
// have been configured with the same player list. The seed is NOT
// hashed: it is protocol input, not topology, and a seed mismatch shows
// up as a protocol divergence, not a transport misconfiguration.
[[nodiscard]] std::uint64_t roster_hash(int n, int t,
                                        const std::vector<TcpNodeAddr>& roster);

struct TcpClusterOptions {
  // start(): how long to wait for every peer link to come up.
  unsigned start_timeout_ms = 15000;
  // Pre-bound listen socket (the in-process loopback harness binds all
  // n ephemeral ports before any roster hash is computed); -1 binds
  // roster[id] internally.
  int listen_fd = -1;
};

// End of run(): how long to wait for every peer's Bye.
inline constexpr unsigned kTcpDrainTimeoutMs = 2000;

// One process owns only its own player's handles: the shared PartyIo.
using TcpPartyIo = PartyIo;

// Transport-level counters, snapshot under the demux lock — the test
// surface (no telemetry needed) for connect/reconnect/reject/drop
// behavior.
struct TcpStats {
  struct PeerStats {
    bool up = false;
    bool lapsed = false;
    bool bye = false;
    std::uint64_t connects = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t handshake_rejects = 0;  // dialer-side
    std::uint64_t tx_frames = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t rx_frames = 0;
    std::uint64_t rx_bytes = 0;
    std::uint64_t dropped_frames = 0;  // send-side, while the link was down
  };
  std::vector<PeerStats> peers;  // indexed by player id; [self] is zeroed
  // Listener-side handshake rejects by reason (kHandshakeRejectReasons).
  std::uint64_t accept_rejects[kHandshakeRejectReasons] = {0, 0, 0, 0, 0};
  std::uint64_t frame_decode_failures = 0;  // kRound payloads that failed
  std::uint64_t lapsed_frames = 0;  // frames from lapsed/unknown peers
  // Views of the core's ledger (summed over domains).
  std::uint64_t stale_rejections = 0;
  std::uint64_t foreign_rejections = 0;
  std::uint64_t decode_rejections = 0;  // receiver-reported (protocol layer)
  std::uint64_t banned_suppressions = 0;
  // Messages buffered in the demux, not yet delivered by a sync().
  std::uint64_t recv_pending = 0;
};

class TcpCluster : private LockstepCore {
 public:
  using Program = std::function<void(TcpPartyIo&)>;

  // This process is player `id` of `roster` (size n), tolerating t
  // faults, with all player randomness derived from `seed` — the same
  // (n, t, seed) every node must be configured with.
  TcpCluster(int id, int n, int t, std::uint64_t seed,
             std::vector<TcpNodeAddr> roster, TcpClusterOptions opts = {});
  ~TcpCluster();
  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  [[nodiscard]] int id() const { return id_; }
  using LockstepCore::n;
  using LockstepCore::t;
  [[nodiscard]] std::uint16_t listen_port() const { return listen_port_; }

  // Same contract as Cluster::set_misbehavior_manager: admit-side
  // signals and ban suppression; must be set before run().
  using LockstepCore::misbehavior;
  using LockstepCore::set_misbehavior_manager;

  // Binds (unless pre-bound), starts the accept loop and every peer,
  // and blocks until all n-1 links are up or start_timeout elapses.
  // Returns whether the full mesh came up; on false the caller may
  // inspect stats() (e.g. handshake rejects) and must still destroy the
  // cluster normally.
  [[nodiscard]] bool start();

  // Runs this player's program to completion on the calling thread,
  // then announces kBye and waits (at most kTcpDrainTimeoutMs) until
  // every peer has said Bye or lapsed, so
  // stats() afterwards reflects every peer's end of run. One run per
  // cluster (a returned program told every peer it is done — rejoin is
  // an epoch concern, not a transport one). Exceptions propagate after
  // the Bye so remote barriers are not deadlocked by our crash.
  void run(const Program& program);

  // The root-stream handle (valid after construction; protocols open
  // per-batch siblings through instance()).
  [[nodiscard]] TcpPartyIo& root() { return handle(id_, 0); }

  [[nodiscard]] TcpStats stats() const;
  // Aggregate communication this node sent (protocol-layer accounting,
  // matching the simulated cluster's per-player ledger bit-for-bit for
  // equivalent runs).
  using LockstepCore::comm;

  // Chaos/test hook: cuts the live connection to `peer` (both halves see
  // a close, the dialer side reconnects with backoff). During a run this
  // is a peer kill — the peer lapses; between start() and run() it
  // exercises pure transport reconnect. No-op for self/out-of-range.
  void sever_peer(int peer);

 private:
  // Demux state for one round stream: what each sender has delivered
  // and what is buffered awaiting our own sync().
  struct StreamState {
    // next_round[j]: the lowest round whose bundle from sender j has
    // NOT yet arrived. An honest sender's bundles arrive strictly in
    // order (one ordered TCP connection, sequential per-stream syncs),
    // so only the contiguous next round is ever accepted — any other
    // label is a protocol violation, dropped and scored, which also
    // bounds the demux buffer without a window heuristic.
    std::vector<std::uint64_t> next_round;
    // pending[j][round] -> that sender's bundle, in its send order
    // (rounds the sender has shipped but our own sync() hasn't consumed
    // yet — nonempty exactly when the peer runs ahead of us).
    std::vector<std::map<std::uint64_t, std::vector<Msg>>> pending;
  };

  // Peer-thread entry points (serialized on mu_).
  void on_frame(int peer, FrameType type, std::vector<std::uint8_t> payload);
  void on_peer_up();
  void on_peer_down(int peer);
  // A framing violation by `peer`: count, score, and cut the connection.
  void reject_frame(int peer);
  void accept_loop();
  // Listener half of the handshake; returns false (and counts the
  // reason) when the connection must be closed.
  bool accept_handshake(int fd);

  // Ships io's round bundles, waits for every live peer's bundle of the
  // same (stream, round), and runs the core's exchange.
  void link_sync(PartyIo& io) override;
  StreamState& stream_state_locked(std::uint32_t stream);
  // The telemetry view: net_tcp_{connects,reconnects,tx_bytes,rx_bytes}
  // _total{node,peer} from the peers' own counters and
  // net_tcp_recv_pending{node} (takes mu_).
  void collect(ViewSink& sink) const;

  const int id_;
  const std::vector<TcpNodeAddr> roster_;
  const TcpClusterOptions opts_;
  const std::uint64_t roster_hash_;

  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  // Guarded by the core's mu_.
  std::condition_variable cv_;
  std::map<std::uint32_t, StreamState> streams_;
  std::vector<char> lapsed_;  // latched per run on disconnect
  std::vector<char> bye_;     // peer's program finished cleanly
  std::uint64_t accept_rejects_[kHandshakeRejectReasons] = {0, 0, 0, 0, 0};
  std::uint64_t frame_decode_failures_ = 0;
  std::uint64_t lapsed_frames_ = 0;
  std::uint64_t buffered_msgs_ = 0;  // demuxed, not yet sync()-consumed

  // Lazily created net_tcp_barrier_wait_us{node=<id>}.
  Histogram* tel_barrier_wait_ = nullptr;

  // peers_[j] for j != id_; [id_] stays null (filled by start() under
  // mu_). Declared after everything their link threads touch.
  std::vector<std::unique_ptr<TcpPeer>> peers_;
  std::thread accept_thread_;
  CollectorHandle collector_ =
      metrics().add_collector([this](ViewSink& sink) { collect(sink); });
};

// --------------------------------------------------------------------------
// In-process loopback harness: n TcpClusters on 127.0.0.1 ephemeral
// ports, used by the equivalence tests and available to benches. Binds
// every listen socket first (two-phase), so the roster — and therefore
// the roster hash every handshake validates — is complete before any
// node constructs.
class TcpLoopback {
 public:
  TcpLoopback(int n, int t, std::uint64_t seed, TcpClusterOptions opts = {});

  [[nodiscard]] int n() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] TcpCluster& node(int i) { return *nodes_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] const std::vector<TcpNodeAddr>& roster() const {
    return roster_;
  }

  // Starts every node concurrently; true iff the full mesh came up.
  [[nodiscard]] bool start();

  // Runs programs[i] on node i, each on its own thread, to completion.
  // Rethrows the first program exception after all threads join.
  void run(std::vector<TcpCluster::Program> programs);

 private:
  std::vector<TcpNodeAddr> roster_;
  std::vector<std::unique_ptr<TcpCluster>> nodes_;
};

}  // namespace dprbg
