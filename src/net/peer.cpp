#include "net/peer.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

namespace dprbg {
namespace {

void set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return;
  ::fcntl(fd, F_SETFL, on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK));
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Resolves `host` (numeric or name) into a sockaddr_in. The transport is
// IPv4-only for now — the roster format is host:port and every test and
// deployment target uses 127.0.0.1 or a numeric LAN address.
bool resolve_ipv4(const std::string& host, std::uint16_t port,
                  sockaddr_in* out) {
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &out->sin_addr) == 1) return true;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), nullptr, &hints, &res) != 0 ||
      res == nullptr) {
    return false;
  }
  out->sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return true;
}

}  // namespace

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

int tcp_listen_socket(const std::string& host, std::uint16_t port,
                      std::string* err) {
  sockaddr_in addr{};
  if (!resolve_ipv4(host, port, &addr)) {
    if (err != nullptr) *err = "cannot resolve " + host;
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err != nullptr) *err = "socket: " + std::string(::strerror(errno));
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (err != nullptr) *err = "bind: " + std::string(::strerror(errno));
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 64) != 0) {
    if (err != nullptr) *err = "listen: " + std::string(::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

std::uint16_t tcp_local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

int tcp_connect_socket(const std::string& host, std::uint16_t port,
                       unsigned timeout_ms) {
  sockaddr_in addr{};
  if (!resolve_ipv4(host, port, &addr)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  set_nonblocking(fd, true);
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  if (rc != 0) {
    const int rev = poll_one(fd, POLLOUT, static_cast<int>(timeout_ms));
    if (rev <= 0 || (rev & (POLLERR | POLLHUP)) != 0) {
      ::close(fd);
      return -1;
    }
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 ||
        soerr != 0) {
      ::close(fd);
      return -1;
    }
  }
  set_nonblocking(fd, false);
  set_nodelay(fd);
  return fd;
}

bool tcp_write_all(int fd, std::span<const std::uint8_t> data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) return false;
    // Send buffer full: wait for room, but a socket that takes no byte
    // for kTcpWriteStallMs belongs to a peer that stopped reading.
    const int rev =
        poll_one(fd, POLLOUT, static_cast<int>(kTcpWriteStallMs));
    if (rev <= 0 || (rev & POLLOUT) == 0) return false;
  }
  return true;
}

namespace {

using SteadyClock = std::chrono::steady_clock;

// Reads exactly `len` bytes, polling in slices so `stop` interrupts and
// `deadline` (time_point::max() = none) bounds the total wait.
TcpReadStatus read_exact(int fd, const std::atomic<bool>& stop,
                         unsigned poll_ms, std::uint8_t* dst, std::size_t len,
                         SteadyClock::time_point deadline) {
  std::size_t off = 0;
  while (off < len) {
    if (stop.load(std::memory_order_acquire)) return TcpReadStatus::kStopped;
    if (SteadyClock::now() >= deadline) return TcpReadStatus::kTimeout;
    const int rev = poll_one(fd, POLLIN, static_cast<int>(poll_ms));
    if (rev < 0) return TcpReadStatus::kClosed;
    if (rev == 0) continue;  // timeout slice — re-check stop and poll again
    const ssize_t n = ::recv(fd, dst + off, len - off, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return TcpReadStatus::kClosed;
    }
    if (n == 0) return TcpReadStatus::kClosed;  // orderly EOF
    off += static_cast<std::size_t>(n);
  }
  return TcpReadStatus::kOk;
}

}  // namespace

TcpReadStatus tcp_read_frame(int fd, const std::atomic<bool>& stop,
                             unsigned poll_ms, std::size_t max_frame,
                             FrameType* type,
                             std::vector<std::uint8_t>* payload,
                             unsigned deadline_ms) {
  const auto deadline =
      deadline_ms == 0
          ? SteadyClock::time_point::max()
          : SteadyClock::now() + std::chrono::milliseconds(deadline_ms);
  std::uint8_t prefix[kTcpFramePrefixBytes];
  TcpReadStatus st =
      read_exact(fd, stop, poll_ms, prefix, sizeof(prefix), deadline);
  if (st != TcpReadStatus::kOk) return st;
  const std::uint32_t len = static_cast<std::uint32_t>(prefix[0]) |
                            (static_cast<std::uint32_t>(prefix[1]) << 8) |
                            (static_cast<std::uint32_t>(prefix[2]) << 16) |
                            (static_cast<std::uint32_t>(prefix[3]) << 24);
  // `len` counts the type byte; the payload is len - 1 bytes. Length 0
  // (no type byte) is malformed; an over-limit length is rejected before
  // any allocation.
  if (len == 0 || len > max_frame + 1) return TcpReadStatus::kTooBig;
  *type = static_cast<FrameType>(prefix[4]);
  payload->assign(static_cast<std::size_t>(len) - 1, 0);
  if (len > 1) {
    st = read_exact(fd, stop, poll_ms, payload->data(), payload->size(),
                    deadline);
    if (st != TcpReadStatus::kOk) return st;
  }
  return TcpReadStatus::kOk;
}

// ---------------------------------------------------------------------------

TcpPeer::TcpPeer(int remote_id, std::string host, std::uint16_t port,
                 Role role, HelloFrame local_hello, PeerCallbacks cb)
    : remote_id_(remote_id),
      host_(std::move(host)),
      port_(port),
      role_(role),
      local_hello_(local_hello),
      cb_(std::move(cb)) {}

TcpPeer::~TcpPeer() { stop(); }

void TcpPeer::start() {
  thread_ = std::thread([this] {
    if (role_ == Role::kDialer) {
      dial_loop();
    } else {
      listen_loop();
    }
  });
}

bool TcpPeer::send(std::span<const std::uint8_t> frame) {
  std::lock_guard w(write_mu_);
  int fd = -1;
  {
    std::lock_guard lk(mu_);
    fd = fd_;
  }
  if (fd >= 0 && tcp_write_all(fd, frame)) {
    tx_frames_.fetch_add(1, std::memory_order_relaxed);
    tx_bytes_.fetch_add(frame.size(), std::memory_order_relaxed);
    return true;
  }
  // A failed or stalled write cuts the link; the link thread observes
  // the close and runs the teardown (it owns the on_down notification).
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  dropped_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void TcpPeer::serve(int fd) {
  connects_.fetch_add(1, std::memory_order_relaxed);
  up_.store(true, std::memory_order_release);
  if (cb_.on_up) cb_.on_up(remote_id_);
  read_loop(fd);
  up_.store(false, std::memory_order_release);
  // Fail a writer stalled on this socket, then wait it out: the fd is
  // closed only under the write mutex, so no write can land on a reused
  // descriptor number.
  ::shutdown(fd, SHUT_RDWR);
  {
    std::lock_guard w(write_mu_);
    std::lock_guard lk(mu_);
    ::close(fd);
    fd_ = -1;
  }
  if (!stop_.load(std::memory_order_acquire) && cb_.on_down) {
    cb_.on_down(remote_id_);
  }
}

void TcpPeer::read_loop(int fd) {
  for (;;) {
    FrameType type{};
    std::vector<std::uint8_t> payload;
    const TcpReadStatus st = tcp_read_frame(fd, stop_, kTcpReadPollMs,
                                            kTcpMaxFrameBytes, &type, &payload);
    if (st != TcpReadStatus::kOk) return;
    rx_frames_.fetch_add(1, std::memory_order_relaxed);
    rx_bytes_.fetch_add(kTcpFramePrefixBytes + payload.size(),
                        std::memory_order_relaxed);
    if (cb_.on_frame) cb_.on_frame(remote_id_, type, std::move(payload));
  }
}

bool TcpPeer::dial_handshake(int fd) {
  if (!tcp_write_all(fd, frame_bytes(FrameType::kHello,
                                     encode_hello(local_hello_)))) {
    return false;
  }
  // Await the HelloAck, bounded by the handshake timeout.
  FrameType type{};
  std::vector<std::uint8_t> payload;
  const TcpReadStatus st =
      tcp_read_frame(fd, stop_, kTcpReadPollMs, kTcpMaxFrameBytes, &type,
                     &payload, kTcpHandshakeTimeoutMs);
  if (st == TcpReadStatus::kStopped) return false;
  // A close or silence from the listener is almost always a handshake
  // reject on its side (roster/version mismatch); count it with the
  // Acks we refuse ourselves.
  const auto ack = st == TcpReadStatus::kOk && type == FrameType::kHelloAck
                       ? decode_hello(payload)
                       : std::nullopt;
  const bool ok = ack && ack->proto_version == local_hello_.proto_version &&
                  ack->wire_version == local_hello_.wire_version &&
                  ack->roster_hash == local_hello_.roster_hash &&
                  ack->node_id == static_cast<std::uint32_t>(remote_id_) &&
                  ack->n == local_hello_.n;
  if (!ok) rejects_.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

void TcpPeer::dial_loop() {
  unsigned backoff = kTcpBackoffInitialMs;
  while (!stop_.load(std::memory_order_acquire)) {
    const int fd = tcp_connect_socket(host_, port_, kTcpConnectTimeoutMs);
    if (fd >= 0 && dial_handshake(fd)) {
      backoff = kTcpBackoffInitialMs;
      {
        std::lock_guard lk(mu_);
        fd_ = fd;
      }
      serve(fd);  // returns when the connection dies
      continue;   // redial immediately after a lost connection
    }
    if (fd >= 0) ::close(fd);
    std::unique_lock lk(mu_);
    cv_.wait_for(lk, std::chrono::milliseconds(backoff),
                 [this] { return stop_.load(std::memory_order_acquire); });
    backoff = std::min(2 * backoff, kTcpBackoffMaxMs);
  }
}

void TcpPeer::listen_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [this] {
        return stop_.load(std::memory_order_acquire) || adopted_ >= 0;
      });
      if (stop_.load(std::memory_order_acquire)) return;
      fd = fd_ = std::exchange(adopted_, -1);
    }
    serve(fd);
  }
}

void TcpPeer::adopt(int fd) {
  set_nodelay(fd);
  {
    std::lock_guard lk(mu_);
    if (!stop_.load(std::memory_order_acquire)) {
      // A newer accept supersedes one not yet picked up, and the live
      // connection (if any) is cut so the link thread moves on to it.
      if (adopted_ >= 0) ::close(adopted_);
      adopted_ = std::exchange(fd, -1);
      if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    }
  }
  if (fd >= 0) ::close(fd);
  cv_.notify_all();
}

void TcpPeer::sever() {
  std::lock_guard lk(mu_);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpPeer::stop() {
  {
    std::lock_guard lk(mu_);
    stop_.store(true, std::memory_order_release);
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    if (adopted_ >= 0) ::close(std::exchange(adopted_, -1));
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

}  // namespace dprbg
