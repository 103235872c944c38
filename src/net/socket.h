// Non-blocking TCP sockets with RAII ownership, poll-based readiness,
// and deadline-bounded full-buffer send/recv loops.
//
// This is the bottom of the network serving tier: TcpListener accepts
// connections on a loopback/interface port (port 0 picks an ephemeral
// port, reported by port()), TcpConnection moves whole byte buffers with
// SendAll/RecvAll. Every fd stays in O_NONBLOCK -- the serving daemons
// run one thread per connection. SendAll and RecvAll call send()/recv()
// first and poll() only when the call would block (EAGAIN), so bytes
// already buffered cost one syscall; each such wait parks in a poll()
// bounded by the caller's deadline, so a stalled peer or an injected
// partial read/write surfaces as a typed Status (kUnavailable on
// connection loss, kDeadlineExceeded on timeout) instead of a hang. A
// blocking send() could otherwise wedge a handler thread forever once
// the kernel socket buffer fills against a stalled receiver.
//
// Fault sites (see util/fault.h): "net.accept" fails an Accept after the
// kernel handshake, "net.read" truncates a RecvAll mid-buffer, and
// "net.write" truncates a SendAll mid-buffer -- all surface the same
// typed errors a flaky network would.

#ifndef FAIRDRIFT_NET_SOCKET_H_
#define FAIRDRIFT_NET_SOCKET_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace fairdrift {
namespace net {

/// One connected TCP stream. Move-only; the destructor closes the fd.
class TcpConnection {
 public:
  TcpConnection() = default;
  ~TcpConnection() { Close(); }
  TcpConnection(TcpConnection&& other) noexcept;
  TcpConnection& operator=(TcpConnection&& other) noexcept;
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Connects to host:port (numeric IPv4 dotted quad or "localhost"),
  /// bounded by `timeout`. Returns kUnavailable on refusal/timeout.
  static Result<TcpConnection> Connect(const std::string& host, uint16_t port,
                                       std::chrono::milliseconds timeout);

  /// Adopts an already-connected fd (listener side). The fd must be in
  /// O_NONBLOCK -- SendAll/RecvAll deadlines depend on it.
  static TcpConnection Adopt(int fd);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Sends exactly `size` bytes, looping over short writes; polls only
  /// after a send() that would block. Bounded by `timeout` overall.
  /// kUnavailable on peer reset/close, kDeadlineExceeded when the
  /// deadline passes with bytes still unsent.
  Status SendAll(const char* data, size_t size,
                 std::chrono::milliseconds timeout);

  /// Receives exactly `size` bytes, looping over short reads; polls only
  /// after a recv() that would block. Same typed errors as SendAll; a
  /// clean EOF mid-buffer is kUnavailable.
  Status RecvAll(char* data, size_t size, std::chrono::milliseconds timeout);

  /// Waits until the connection is readable (or error/hup) or `timeout`
  /// passes. Returns true when readable.
  bool WaitReadable(std::chrono::milliseconds timeout) const;

  void Close();

 private:
  explicit TcpConnection(int fd) : fd_(fd) {}
  int fd_ = -1;
};

/// A listening TCP socket. Move-only; the destructor closes the fd.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener() { Close(); }
  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds and listens on `host:port` (SO_REUSEADDR; port 0 = ephemeral).
  static Result<TcpListener> Listen(const std::string& host, uint16_t port,
                                    int backlog = 64);

  bool valid() const { return fd_ >= 0; }
  /// The bound port (resolved after Listen, also for port 0).
  uint16_t port() const { return port_; }

  /// Polls for a pending connection for up to `timeout`, then accepts.
  /// kDeadlineExceeded when nothing arrived (the caller's poll-loop tick),
  /// kUnavailable on accept failure or an armed "net.accept" fault.
  Result<TcpConnection> Accept(std::chrono::milliseconds timeout);

  void Close();

 private:
  TcpListener(int fd, uint16_t port) : fd_(fd), port_(port) {}
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace net
}  // namespace fairdrift

#endif  // FAIRDRIFT_NET_SOCKET_H_
