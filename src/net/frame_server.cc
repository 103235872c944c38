#include "net/frame_server.h"

#include <utility>

namespace fairdrift {
namespace net {

namespace {

// How long an idle accept or connection takes to notice Stop.
constexpr std::chrono::milliseconds kPollTick{50};

}  // namespace

Result<std::unique_ptr<FrameServer>> FrameServer::Start(
    const std::string& host, uint16_t port,
    std::chrono::milliseconds io_timeout, Handler handler) {
  std::unique_ptr<FrameServer> server(new FrameServer());
  server->io_timeout_ = io_timeout;
  server->handler_ = std::move(handler);
  Result<TcpListener> listener = TcpListener::Listen(host, port);
  if (!listener.ok()) return listener.status();
  server->listener_ = std::move(listener).value();
  FrameServer* raw = server.get();
  server->accept_thread_ = std::thread([raw] { raw->AcceptLoop(); });
  return server;
}

FrameServer::~FrameServer() { Stop(); }

void FrameServer::Stop() {
  // call_once serializes concurrent stoppers: exactly one runs the joins,
  // and every caller returns only after they completed.
  std::call_once(stop_once_, [this] {
    stop_.store(true);
    if (accept_thread_.joinable()) accept_thread_.join();
    for (ConnThread& c : conn_threads_) {
      if (c.thread.joinable()) c.thread.join();
    }
    conn_threads_.clear();
    listener_.Close();
  });
}

FrameServer::Counters FrameServer::counters() const {
  std::lock_guard<std::mutex> lock(counter_mu_);
  return counters_;
}

void FrameServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    for (auto it = conn_threads_.begin(); it != conn_threads_.end();) {
      if (it->done->load(std::memory_order_acquire)) {
        it->thread.join();
        it = conn_threads_.erase(it);
      } else {
        ++it;
      }
    }
    Result<TcpConnection> conn = listener_.Accept(kPollTick);
    if (!conn.ok()) continue;  // poll tick elapsed, or a transient failure
    {
      std::lock_guard<std::mutex> lock(counter_mu_);
      ++counters_.connections_accepted;
    }
    auto done = std::make_shared<std::atomic<bool>>(false);
    conn_threads_.push_back(
        ConnThread{std::thread(&FrameServer::ServeConnection, this,
                               std::move(conn).value(), done),
                   done});
  }
}

void FrameServer::ServeConnection(TcpConnection conn,
                                  std::shared_ptr<std::atomic<bool>> done) {
  while (!stop_.load(std::memory_order_relaxed)) {
    // Idle connections park in short readability polls so Stop() is
    // never stuck behind a silent peer; only an actual frame start pays
    // the full io_timeout read.
    if (!conn.WaitReadable(kPollTick)) continue;
    Result<Frame> frame = ReadFrame(conn, io_timeout_);
    if (!frame.ok()) {
      // kUnavailable here is normally just the peer hanging up; anything
      // else (checksum, desync, timeout) is worth reporting back if the
      // socket still works. Either way this connection is done.
      if (frame.status().code() != StatusCode::kUnavailable) {
        std::lock_guard<std::mutex> lock(counter_mu_);
        ++counters_.frame_errors;
      }
      (void)WriteErrorFrame(conn, frame.status(), io_timeout_);
      break;
    }
    Frame reply = handler_(frame.value());
    {
      std::lock_guard<std::mutex> lock(counter_mu_);
      ++counters_.frames_served;
      if (reply.type == FrameType::kError) ++counters_.frame_errors;
    }
    if (!WriteFrame(conn, reply.type, reply.payload, io_timeout_).ok()) {
      break;
    }
  }
  conn.Close();
  done->store(true, std::memory_order_release);
}

}  // namespace net
}  // namespace fairdrift
