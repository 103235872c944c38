// ShardDaemon: one ScoringServer behind the wire.
//
// The daemon wraps a single in-process ScoringServer with a TCP
// listener speaking net/frame.h frames: score-batch, health-probe,
// stats-snapshot, and the three-phase snapshot-push RPCs
// (manifest -> chunks -> commit, plus revert). One accept loop polls
// the listener (reaping finished handler threads each tick); each
// accepted connection gets its own handler thread with deadline-bounded
// reads, so a frame-level error on one
// connection (checksum mismatch, injected partial read, dead client)
// closes that connection and nothing else.
//
// Push protocol (receiver side):
//   kPushManifest  the pusher's SnapshotManifest. The daemon diffs it
//                  against the chunk set of the snapshot it currently
//                  serves (seeded at startup by chunking the loaded
//                  snapshot) and replies with the names of the chunks
//                  it needs -- an unchanged artifact never travels.
//   kPushChunk     one named chunk; verified against the pending
//                  manifest's size + FNV-1a before staging. Fault site
//                  "net.push.chunk" rejects here with kDataLoss.
//   kPushCommit    assembles pending + reusable current chunks into the
//                  full payload, re-verifies the whole-payload checksum,
//                  parses it (kAllowPartial: a damaged monitor tail
//                  serves degraded), atomically swaps it into the
//                  server (in-flight batches finish on the old snapshot
//                  -- zero dropped requests), and persists the chunked
//                  form to state_dir when configured, so a restarted
//                  daemon serves the pushed version.
//   kPushRevert    swaps back to the pre-commit snapshot (one-deep
//                  history) -- the router's reverse-order rollback path.

#ifndef FAIRDRIFT_SERVE_NET_SHARD_DAEMON_H_
#define FAIRDRIFT_SERVE_NET_SHARD_DAEMON_H_

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "serve/server.h"
#include "serve/snapshot_manifest.h"
#include "serve/trace/trace_log.h"

namespace fairdrift {
namespace net {

struct ShardDaemonOptions {
  /// Interface to bind ("127.0.0.1" keeps the daemon loopback-only).
  std::string host = "127.0.0.1";
  /// Port to listen on; 0 picks an ephemeral port (see port()).
  uint16_t port = 0;
  /// The wrapped ScoringServer's configuration.
  ServerOptions server;
  /// When non-empty: every committed push is also persisted here as a
  /// chunked snapshot (manifest + chunks), so a restarted daemon can
  /// load the version it was serving.
  std::string state_dir;
  /// Per-frame send/receive deadline. A peer that stalls mid-frame is
  /// disconnected with kDeadlineExceeded rather than wedging a handler.
  std::chrono::milliseconds io_timeout = std::chrono::milliseconds(5000);
  /// Accept/readability poll tick (stop-flag latency bound).
  std::chrono::milliseconds poll_tick = std::chrono::milliseconds(50);
  /// How strictly pushed payloads parse. kAllowPartial (default) lets a
  /// push whose monitor tail is damaged serve degraded, mirroring the
  /// file loader.
  SnapshotLoadMode push_load_mode = SnapshotLoadMode::kAllowPartial;
  /// When non-empty: enables request tracing with a chained JSONL trace
  /// log at this path. Overrides options.server.trace (enabled, sink,
  /// role "shard", deferred emission so wire_send lands in the span).
  std::string trace_log_path;
  /// Content-hash sampling modulus for the trace log (1-in-N rows).
  uint32_t trace_sample_modulus = 64;
  /// Trace log segment rotation threshold (0 = never rotate).
  uint64_t trace_rotate_bytes = 0;
};

class ShardDaemon {
 public:
  /// Starts serving `snapshot` on options.host:options.port. The daemon
  /// is accepting connections when Start returns.
  static Result<std::unique_ptr<ShardDaemon>> Start(
      std::shared_ptr<const ModelSnapshot> snapshot,
      const ShardDaemonOptions& options = {});

  ~ShardDaemon();
  ShardDaemon(const ShardDaemon&) = delete;
  ShardDaemon& operator=(const ShardDaemon&) = delete;

  /// The bound port (resolved for ephemeral binds).
  uint16_t port() const { return listener_.port(); }

  /// The wrapped server (test/CLI introspection; the daemon owns it).
  ScoringServer* server() { return server_.get(); }

  /// The trace log, or null when tracing is off (test introspection).
  TraceLog* trace_log() { return trace_log_.get(); }

  /// Wire activity counters.
  struct Counters {
    uint64_t connections_accepted = 0;
    uint64_t frames_served = 0;
    uint64_t frame_errors = 0;   ///< error frames sent to peers
    uint64_t push_commits = 0;
    uint64_t push_reverts = 0;
    uint64_t push_chunks_received = 0;
  };
  Counters counters() const;

  /// Stops accepting, closes connections, and stops the server
  /// (draining its queue). Idempotent; called by the destructor.
  void Stop();

 private:
  ShardDaemon() = default;

  void AcceptLoop();
  void StopImpl();
  /// Joins handler threads whose connection has finished, so a
  /// long-running daemon never holds a joinable pthread per client it
  /// has ever served. Runs on the accept loop's poll tick.
  void ReapFinishedConnections();
  void ServeConnection(TcpConnection conn,
                       std::shared_ptr<std::atomic<bool>> done);
  /// Dispatches one request frame; returns the reply frame to send.
  Frame HandleFrame(const Frame& frame);
  Frame ErrorFrame(const Status& error);

  Frame HandleScoreBatch(const Frame& frame);
  Frame HandleHealthProbe();
  Frame HandleStatsSnapshot();
  Frame HandleMetrics();
  Frame HandlePushManifest(const Frame& frame);
  Frame HandlePushChunk(const Frame& frame);
  Frame HandlePushCommit();
  Frame HandlePushRevert();

  ShardDaemonOptions options_;
  /// Declared before server_: the server holds a raw sink pointer into
  /// the trace log and may emit during its Stop() drain, so the log
  /// must be destroyed after the server.
  std::unique_ptr<TraceLog> trace_log_;
  std::unique_ptr<ScoringServer> server_;
  TcpListener listener_;
  std::atomic<bool> stop_{false};
  std::once_flag stop_once_;
  std::thread accept_thread_;

  /// One handler thread per live connection; `done` flips when the
  /// handler exits so the accept loop can reap (join) it.
  struct ConnThread {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::mutex conn_mu_;
  std::vector<ConnThread> conn_threads_;

  // Push state (one push in flight at a time; conn threads serialize on
  // push_mu_). current_* describes the snapshot the server serves;
  // previous_* is the one-deep revert history.
  std::mutex push_mu_;
  SnapshotManifest current_manifest_;
  std::map<std::string, std::string> current_chunks_;
  bool pending_valid_ = false;
  SnapshotManifest pending_manifest_;
  std::map<std::string, std::string> pending_chunks_;
  std::shared_ptr<const ModelSnapshot> previous_snapshot_;
  SnapshotManifest previous_manifest_;
  std::map<std::string, std::string> previous_chunks_;

  mutable std::mutex counter_mu_;
  Counters counters_;
};

}  // namespace net
}  // namespace fairdrift

#endif  // FAIRDRIFT_SERVE_NET_SHARD_DAEMON_H_
