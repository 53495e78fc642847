// One remote node of the TCP transport: its connection lifecycle on ONE
// thread, and writes on the caller's thread.
//
// Roles are deterministic by index (the classic MPC party-loop shape):
// between players i < j it is always j that dials and i that listens, so
// every pair establishes exactly one connection and a restarted process
// knows which direction to re-establish without negotiation. Each
// `TcpPeer` owns one link thread for its whole life:
//
//   * dialer  (remote id < local id): the thread dials, handshakes
//     (Hello -> HelloAck), then reads frames until the connection dies,
//     then backs off (capped exponential) and redials — forever, until
//     stop(). Every successful (re)connect is counted.
//   * listener (remote id > local id): the cluster's accept loop
//     performs the listener half of the handshake and hands the socket
//     over via adopt(); the thread waits for that socket, then reads
//     frames until the connection dies, then waits for the next one.
//
// Sending is synchronous: send() writes one framed byte string to the
// socket on the calling thread, under a per-peer write mutex that keeps
// frames from concurrent callers (one per pipelined stream) whole.
// Nothing is queued, so memory is bounded by the frame in hand. While the
// peer is down, frames are dropped and counted — lockstep semantics
// treat a disconnected peer as crashed, so there is nothing useful to
// buffer (a reconnected process restarts its protocol state anyway; see
// DESIGN.md §16). A write that makes no progress for kTcpWriteStallMs
// (the peer stopped reading) severs the link, and the peer lapses
// exactly as if it had crashed.
//
// Thread-safety: all public methods may be called from any thread. The
// callbacks (on_frame/on_up/on_down) fire on this peer's link thread;
// the owning TcpCluster serializes its own state behind its demux mutex.
// Lock order: the write mutex, then mu_. The socket is closed only with
// both held, so a close never lands under an in-flight write.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/framing.h"

namespace dprbg {

// --------------------------------------------------------------------------
// Transport timing (milliseconds).

// Dialer: how long one connect() attempt may take.
inline constexpr unsigned kTcpConnectTimeoutMs = 2000;
// Either end: how long to wait for the peer's Hello / HelloAck.
inline constexpr unsigned kTcpHandshakeTimeoutMs = 2000;
// Poll granularity for reads (bounds stop() latency, not throughput).
inline constexpr unsigned kTcpReadPollMs = 50;
// Reconnect backoff: initial delay, doubled per consecutive failure,
// capped. A successful handshake resets the ladder.
inline constexpr unsigned kTcpBackoffInitialMs = 10;
inline constexpr unsigned kTcpBackoffMaxMs = 1000;
// A write that cannot hand the kernel a single byte for this long means
// the peer stopped reading: the link is severed.
inline constexpr unsigned kTcpWriteStallMs = 2000;

// --------------------------------------------------------------------------
// Small POSIX socket helpers shared by TcpPeer and the cluster's accept
// loop. All of them are EINTR-safe and never throw.

// poll() one fd for `events`. Returns revents, 0 on timeout, -1 on error.
int poll_one(int fd, short events, int timeout_ms);

// Creates a bound, listening TCP socket (SO_REUSEADDR). Returns -1 and
// fills `err` on failure. `port` 0 binds an ephemeral port — read it
// back with tcp_local_port.
int tcp_listen_socket(const std::string& host, std::uint16_t port,
                      std::string* err);
std::uint16_t tcp_local_port(int fd);

// Connects with a timeout (non-blocking connect + poll). Returns the
// connected fd, or -1. TCP_NODELAY is set — round frames are small and
// latency-critical.
int tcp_connect_socket(const std::string& host, std::uint16_t port,
                       unsigned timeout_ms);

// Writes the whole buffer; false on any error, or when the socket takes
// no byte for kTcpWriteStallMs.
bool tcp_write_all(int fd, std::span<const std::uint8_t> data);

enum class TcpReadStatus : std::uint8_t {
  kOk = 0,
  kClosed = 1,   // orderly EOF or connection reset
  kTooBig = 2,   // frame length exceeded max_frame (protocol violation)
  kStopped = 3,  // stop flag observed while polling
  kTimeout = 4,  // deadline_ms elapsed before a full frame arrived
};

// Reads exactly one frame (prefix + type + payload). Polls in
// `poll_ms` slices so a raised `stop` flag interrupts an idle read;
// `max_frame` bounds the declared payload length BEFORE any allocation.
// `deadline_ms` caps the whole read (0 = wait forever) — used for the
// handshake, where a silent peer must not park the dialer.
TcpReadStatus tcp_read_frame(int fd, const std::atomic<bool>& stop,
                             unsigned poll_ms, std::size_t max_frame,
                             FrameType* type,
                             std::vector<std::uint8_t>* payload,
                             unsigned deadline_ms = 0);

// --------------------------------------------------------------------------

struct PeerCallbacks {
  // A fully read frame from this peer (link thread context).
  std::function<void(int peer, FrameType, std::vector<std::uint8_t>)>
      on_frame;
  // Connection established (handshake complete).
  std::function<void(int peer)> on_up;
  // Connection lost (EOF, error, oversized frame, stalled write, sever).
  std::function<void(int peer)> on_down;
};

class TcpPeer {
 public:
  enum class Role : std::uint8_t { kDialer = 0, kListener = 1 };

  // `local_hello` is what we send in our Hello and require of the
  // peer's HelloAck (dialer role).
  TcpPeer(int remote_id, std::string host, std::uint16_t port, Role role,
          HelloFrame local_hello, PeerCallbacks cb);
  ~TcpPeer();
  TcpPeer(const TcpPeer&) = delete;
  TcpPeer& operator=(const TcpPeer&) = delete;

  [[nodiscard]] int remote_id() const { return remote_id_; }
  [[nodiscard]] Role role() const { return role_; }

  // Starts the link thread.
  void start();

  // Listener role: hands an accepted, fully handshaken socket to the
  // link thread. Any previous connection is torn down first. Never
  // blocks on the link thread.
  void adopt(int fd);

  // Writes one framed byte string on the calling thread. Returns false
  // (and counts a drop) when the peer is down or the write failed; a
  // failed or stalled write also severs the link.
  bool send(std::span<const std::uint8_t> frame);

  // Drops the current connection (the link thread observes the failure
  // and runs the normal teardown) without stopping the peer: the demux
  // uses this to cut off a peer that violated the framing protocol. A
  // dialer will redial after backoff; a listener waits for a fresh
  // accept.
  void sever();

  // Tears the connection down and joins the link thread. Idempotent.
  void stop();

  [[nodiscard]] bool up() const {
    return up_.load(std::memory_order_acquire);
  }

  // Lifecycle / traffic counters (monotonic, lock-free reads).
  [[nodiscard]] std::uint64_t connects() const { return connects_.load(); }
  [[nodiscard]] std::uint64_t reconnects() const {
    const std::uint64_t c = connects_.load();
    return c > 0 ? c - 1 : 0;
  }
  [[nodiscard]] std::uint64_t handshake_rejects() const {
    return rejects_.load();
  }
  [[nodiscard]] std::uint64_t tx_frames() const { return tx_frames_.load(); }
  [[nodiscard]] std::uint64_t tx_bytes() const { return tx_bytes_.load(); }
  [[nodiscard]] std::uint64_t rx_frames() const { return rx_frames_.load(); }
  [[nodiscard]] std::uint64_t rx_bytes() const { return rx_bytes_.load(); }
  [[nodiscard]] std::uint64_t dropped_frames() const {
    return dropped_.load();
  }

 private:
  void dial_loop();             // dialer: dial, handshake, read, back off
  void listen_loop();           // listener: await adopt(), read
  bool dial_handshake(int fd);  // Hello -> HelloAck; false = reject
  // Installs a live socket (false if stop() came first), reads frames
  // into on_frame until the connection dies, then tears it down.
  void serve(int fd);
  void read_loop(int fd);

  const int remote_id_;
  const std::string host_;
  const std::uint16_t port_;
  const Role role_;
  const HelloFrame local_hello_;
  const PeerCallbacks cb_;

  std::mutex write_mu_;  // one writer at a time; held to close fd_
  std::mutex mu_;        // fd_, adopted_, stop_ transitions
  std::condition_variable cv_;  // adopted_ / stop_ changes
  int fd_ = -1;       // the live socket; cleared only under both mutexes
  int adopted_ = -1;  // listener: accepted socket not yet picked up
  std::thread thread_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> up_{false};
  std::atomic<std::uint64_t> connects_{0};
  std::atomic<std::uint64_t> rejects_{0};
  std::atomic<std::uint64_t> tx_frames_{0};
  std::atomic<std::uint64_t> tx_bytes_{0};
  std::atomic<std::uint64_t> rx_frames_{0};
  std::atomic<std::uint64_t> rx_bytes_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace dprbg
