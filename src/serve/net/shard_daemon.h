// ShardDaemon: one ScoringServer behind the wire.
//
// The daemon wraps a single in-process ScoringServer with a
// net::FrameServer (net/frame_server.h: the listener, one thread per
// connection, deadline-bounded frame I/O) speaking net/frame.h frames:
// score-batch, health-probe, stats-snapshot, metrics, and the
// three-phase snapshot-push RPCs (manifest -> chunks -> commit, plus
// revert). The daemon itself is the frame handler. Stop() stops the
// frame server fully (every connection thread joined) before it stops
// the ScoringServer, so no handler ever submits to a stopped server.
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

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "net/frame.h"
#include "net/frame_server.h"
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
  uint16_t port() const { return frames_->port(); }

  /// The wrapped server (test/CLI introspection; the daemon owns it).
  ScoringServer* server() { return server_.get(); }

  /// The trace log, or null when tracing is off (test introspection).
  TraceLog* trace_log() { return trace_log_.get(); }

  /// Wire activity counters: the frame server's, plus the push RPCs'.
  struct Counters : FrameServer::Counters {
    uint64_t push_commits = 0;
    uint64_t push_reverts = 0;
    uint64_t push_chunks_received = 0;
  };
  Counters counters() const;

  /// Stops the frame server (no new connections; every connection
  /// thread joined), then the ScoringServer (draining its queue).
  /// Idempotent; called by the destructor.
  void Stop();

 private:
  ShardDaemon() = default;

  /// Dispatches one request frame; returns the reply frame to send.
  Frame HandleFrame(const Frame& frame);

  Frame HandleScoreBatch(const Frame& frame);
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

  /// The push_* counters (the frame server keeps the rest).
  mutable std::mutex counter_mu_;
  Counters counters_;

  /// Last: everything its handler touches outlives its threads.
  std::unique_ptr<FrameServer> frames_;
  std::once_flag stop_once_;
};

}  // namespace net
}  // namespace fairdrift

#endif  // FAIRDRIFT_SERVE_NET_SHARD_DAEMON_H_
