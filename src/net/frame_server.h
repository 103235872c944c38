// FrameServer: the one frame-serving loop of the network tier.
//
// A TCP listener whose accept thread polls for connections and joins
// the threads of finished ones on every poll tick (a long-running server
// never holds a thread per client it has ever served). Each connection
// gets its own thread looping
//
//   wait readable (50 ms poll tick) -> ReadFrame -> handler -> WriteFrame
//
// with every read and write bounded by io_timeout. A frame-level error
// (checksum mismatch, injected partial read, dead client) is answered
// with a kError frame while the socket still works, and closes that
// connection only: a desynchronized stream cannot be re-framed.
// ShardDaemon and net::Router both serve on it; only the handler
// differs.

#ifndef FAIRDRIFT_NET_FRAME_SERVER_H_
#define FAIRDRIFT_NET_FRAME_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "util/status.h"

namespace fairdrift {
namespace net {

class FrameServer {
 public:
  /// Maps one request frame to its reply. Runs concurrently on every
  /// connection's thread.
  using Handler = std::function<Frame(const Frame& request)>;

  /// Listens on host:port (port 0 picks an ephemeral port, see port())
  /// and starts accepting. `io_timeout` bounds each frame read and
  /// write.
  static Result<std::unique_ptr<FrameServer>> Start(
      const std::string& host, uint16_t port,
      std::chrono::milliseconds io_timeout, Handler handler);

  ~FrameServer();
  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// The bound port (resolved for ephemeral binds).
  uint16_t port() const { return listener_.port(); }

  struct Counters {
    uint64_t connections_accepted = 0;
    /// Request frames answered.
    uint64_t frames_served = 0;
    /// Error frames sent to peers (handler errors and unreadable frames;
    /// a peer hanging up is not an error).
    uint64_t frame_errors = 0;
  };
  Counters counters() const;

  /// Stops accepting, lets each connection finish the frame in hand and
  /// joins its thread, then closes the listener. Idempotent; every
  /// caller returns after the joins. Called by the destructor.
  void Stop();

 private:
  FrameServer() = default;

  void AcceptLoop();
  void ServeConnection(TcpConnection conn,
                       std::shared_ptr<std::atomic<bool>> done);

  std::chrono::milliseconds io_timeout_{0};
  Handler handler_;
  TcpListener listener_;
  std::atomic<bool> stop_{false};
  std::once_flag stop_once_;
  std::thread accept_thread_;

  /// One thread per live connection; `done` flips when it exits. Only
  /// the accept thread touches this list until Stop has joined it.
  struct ConnThread {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<ConnThread> conn_threads_;

  mutable std::mutex counter_mu_;
  Counters counters_;  // guarded by counter_mu_
};

}  // namespace net
}  // namespace fairdrift

#endif  // FAIRDRIFT_NET_FRAME_SERVER_H_
