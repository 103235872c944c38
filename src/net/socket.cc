#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "util/fault.h"
#include "util/string_util.h"

namespace fairdrift {
namespace net {
namespace {

using Clock = std::chrono::steady_clock;

std::chrono::milliseconds Remaining(Clock::time_point deadline) {
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return std::max(left, std::chrono::milliseconds(0));
}

// Resolves "localhost"/dotted-quad into an IPv4 sockaddr. The serving
// tier targets numeric endpoints (CI and tests run on loopback); DNS
// resolution is out of scope for this layer.
Status FillAddr(const std::string& host, uint16_t port, sockaddr_in* addr) {
  memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  std::string node = (host.empty() || host == "localhost") ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, node.c_str(), &addr->sin_addr) != 1) {
    return Status::InvalidArgument(
        StrFormat("net: cannot parse IPv4 address '%s'", host.c_str()));
  }
  return Status::OK();
}

// One deadline-bounded readiness wait. A signal interrupting poll()
// re-polls with the remaining deadline, so EINTR never masquerades as a
// timeout to callers (Connect, Accept) that treat 0 as final. Returns
// +1 ready, 0 deadline elapsed, -1 error.
int PollOne(int fd, short events, std::chrono::milliseconds timeout) {
  Clock::time_point deadline = Clock::now() + timeout;
  for (;;) {
    pollfd p;
    p.fd = fd;
    p.events = events;
    p.revents = 0;
    int ms = static_cast<int>(std::min<int64_t>(timeout.count(), 1 << 30));
    int rc = ::poll(&p, 1, ms);
    if (rc < 0 && errno == EINTR) {
      timeout = Remaining(deadline);
      continue;
    }
    return rc;
  }
}

// Parks until `fd` is ready for `events` after a send/recv that would
// have blocked. OK when ready, or when poll's whole-millisecond timeout
// ran out just short of `deadline` (the caller retries the call either
// way); kDeadlineExceeded once `deadline` has passed; kUnavailable when
// poll itself fails. `what` names the call and `missing` the bytes it
// still owes, for the messages.
Status AwaitReady(int fd, short events, Clock::time_point deadline,
                  const char* what, size_t missing, size_t size) {
  int ready = PollOne(fd, events, Remaining(deadline));
  if (ready < 0) {
    return Status::Unavailable(
        StrFormat("net: poll(%s) failed: %s", what, strerror(errno)));
  }
  if (ready == 0 && Clock::now() >= deadline) {
    return Status::DeadlineExceeded(
        StrFormat("net: %s timed out with %zu/%zu bytes %s", what, missing,
                  size, events == POLLOUT ? "unsent" : "missing"));
  }
  return Status::OK();
}

}  // namespace

TcpConnection::TcpConnection(TcpConnection&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

TcpConnection& TcpConnection::operator=(TcpConnection&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void TcpConnection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpConnection TcpConnection::Adopt(int fd) { return TcpConnection(fd); }

Result<TcpConnection> TcpConnection::Connect(
    const std::string& host, uint16_t port, std::chrono::milliseconds timeout) {
  sockaddr_in addr;
  Status st = FillAddr(host, port, &addr);
  if (!st.ok()) return st;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable(
        StrFormat("net: socket() failed: %s", strerror(errno)));
  }
  TcpConnection conn(fd);
  // Non-blocking from the start and forever after: the handshake honors
  // the caller's deadline, and SendAll/RecvAll rely on O_NONBLOCK so a
  // full kernel socket buffer surfaces as EAGAIN back into their poll
  // loops instead of a send() that blocks past any deadline.
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0) {
    if (errno != EINPROGRESS) {
      return Status::Unavailable(StrFormat("net: connect %s:%u failed: %s",
                                           host.c_str(), unsigned(port),
                                           strerror(errno)));
    }
    int ready = PollOne(fd, POLLOUT, timeout);
    if (ready <= 0) {
      return Status::Unavailable(StrFormat(
          "net: connect %s:%u timed out", host.c_str(), unsigned(port)));
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      return Status::Unavailable(StrFormat("net: connect %s:%u failed: %s",
                                           host.c_str(), unsigned(port),
                                           strerror(err ? err : errno)));
    }
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return conn;
}

Status TcpConnection::SendAll(const char* data, size_t size,
                              std::chrono::milliseconds timeout) {
  if (fd_ < 0) return Status::Unavailable("net: send on closed connection");
  Clock::time_point deadline = Clock::now() + timeout;
  size_t sent = 0;
  while (sent < size) {
    if (FAULT_POINT("net.write")) {
      // Simulated partial write: the peer sees a truncated stream. Close
      // so both sides converge on kUnavailable instead of deadlocking.
      Close();
      return Status::Unavailable("net: injected write fault (partial write)");
    }
    // Send first: the socket buffer almost always has room, and a poll
    // is only worth its syscall once a send would block.
    ssize_t n = 0;
    for (;;) {
      n = ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
      if (n >= 0) break;
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        return Status::Unavailable(
            StrFormat("net: send failed: %s", strerror(errno)));
      }
      Status ready =
          AwaitReady(fd_, POLLOUT, deadline, "send", size - sent, size);
      if (!ready.ok()) return ready;
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status TcpConnection::RecvAll(char* data, size_t size,
                              std::chrono::milliseconds timeout) {
  if (fd_ < 0) return Status::Unavailable("net: recv on closed connection");
  Clock::time_point deadline = Clock::now() + timeout;
  size_t got = 0;
  while (got < size) {
    if (FAULT_POINT("net.read")) {
      Close();
      return Status::Unavailable("net: injected read fault (partial read)");
    }
    // Receive first, as SendAll sends first: once a frame's header is
    // in, the rest of it usually is too, and a server thread reads the
    // header only after WaitReadable.
    ssize_t n = 0;
    for (;;) {
      n = ::recv(fd_, data + got, size - got, 0);
      if (n >= 0) break;
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        return Status::Unavailable(
            StrFormat("net: recv failed: %s", strerror(errno)));
      }
      Status ready =
          AwaitReady(fd_, POLLIN, deadline, "recv", size - got, size);
      if (!ready.ok()) return ready;
    }
    if (n == 0) {
      return Status::Unavailable(StrFormat(
          "net: peer closed with %zu/%zu bytes missing", size - got, size));
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

bool TcpConnection::WaitReadable(std::chrono::milliseconds timeout) const {
  if (fd_ < 0) return false;
  return PollOne(fd_, POLLIN, timeout) > 0;
}

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

void TcpListener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<TcpListener> TcpListener::Listen(const std::string& host, uint16_t port,
                                        int backlog) {
  sockaddr_in addr;
  Status st = FillAddr(host, port, &addr);
  if (!st.ok()) return st;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable(
        StrFormat("net: socket() failed: %s", strerror(errno)));
  }
  TcpListener listener(fd, port);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::Unavailable(StrFormat("net: bind %s:%u failed: %s",
                                         host.c_str(), unsigned(port),
                                         strerror(errno)));
  }
  if (::listen(fd, backlog) != 0) {
    return Status::Unavailable(
        StrFormat("net: listen failed: %s", strerror(errno)));
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    listener.port_ = ntohs(bound.sin_port);
  }
  return listener;
}

Result<TcpConnection> TcpListener::Accept(std::chrono::milliseconds timeout) {
  if (fd_ < 0) return Status::Unavailable("net: accept on closed listener");
  int ready = PollOne(fd_, POLLIN, timeout);
  if (ready < 0) {
    return Status::Unavailable(
        StrFormat("net: poll(accept) failed: %s", strerror(errno)));
  }
  if (ready == 0) {
    return Status::DeadlineExceeded("net: no pending connection");
  }
  int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) {
    return Status::Unavailable(
        StrFormat("net: accept failed: %s", strerror(errno)));
  }
  if (FAULT_POINT("net.accept")) {
    ::close(fd);
    return Status::Unavailable("net: injected accept fault");
  }
  // Accepted fds stay non-blocking for the same reason Connect's do: a
  // stalled peer must bound at the SendAll/RecvAll deadline, never wedge
  // a handler thread inside a blocking send().
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpConnection::Adopt(fd);
}

}  // namespace net
}  // namespace fairdrift
