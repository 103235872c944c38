// net::Router: a RemoteFleet behind the wire, the frontend router
// process (`fairdrift_cli route` only parses its flags).
//
//   clients --frames--> [FrameServer -> Router] --RemoteFleet--> daemons
//
// Clients speak the protocol of one shard daemon, served on the same
// net::FrameServer. Scores route by the fleet's policy; health (the fold
// of one live probe per daemon), stats (RemoteFleet::stats(), the
// MergeFrom fold of the daemons' views) and metrics (the daemons'
// fairdrift_* families, plus fairdrift_router_* lifecycle counters)
// answer for the fleet. A push is staged here, every
// chunk of it (the router holds none), and relayed as one PushRolling;
// the commit reply carries the lowest version a daemon committed, and a
// rolled-back push is kUnavailable. Other frames get a typed kError.

#ifndef FAIRDRIFT_SERVE_NET_ROUTER_H_
#define FAIRDRIFT_SERVE_NET_ROUTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/frame_server.h"
#include "serve/net/remote_fleet.h"
#include "serve/snapshot_manifest.h"

namespace fairdrift {
namespace net {

class Router {
 public:
  /// Connects a RemoteFleet to the daemons at `addresses` (each must
  /// answer a probe) and serves on host:port (port 0 picks an ephemeral
  /// port). Frame reads and writes are bounded by options.io_timeout.
  static Result<std::unique_ptr<Router>> Start(
      const std::vector<std::string>& addresses,
      const RemoteFleetOptions& options, const std::string& host,
      uint16_t port);

  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// The bound port (resolved for ephemeral binds).
  uint16_t port() const { return frames_->port(); }

  /// Stops serving (every connection thread joined), then the fleet.
  /// Idempotent; called by the destructor.
  void Stop();

 private:
  Router() = default;

  Frame HandleFrame(const Frame& frame);
  Frame HandlePushManifest(const Frame& frame);
  Frame HandlePushChunk(const Frame& frame);
  Frame HandlePushCommit();

  std::unique_ptr<RemoteFleet> fleet_;

  // The staged push (one at a time; connection threads serialize on
  // push_mu_).
  std::mutex push_mu_;
  bool push_valid_ = false;
  SnapshotManifest push_manifest_;
  std::map<std::string, std::string> push_chunks_;

  /// Last: everything its handler touches outlives its threads.
  std::unique_ptr<FrameServer> frames_;
  std::once_flag stop_once_;
};

}  // namespace net
}  // namespace fairdrift

#endif  // FAIRDRIFT_SERVE_NET_ROUTER_H_
