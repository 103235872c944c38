// RemoteFleet: the frontend router over shard daemon processes.
//
//   clients --ScoreBatch--> [ShardRouter policies] --frames--> daemon_0
//                                                        \---> daemon_N
//
// The router is the cross-machine twin of ScoringFleet: it implements
// the same ShardDirectory interface, so the round-robin / least-queue /
// hash+rendezvous policies in serve/fleet/fleet.cc route remote shards
// byte-for-byte the way they route in-process ones (a hash-routed row
// lands on the same shard index either way — the CI smoke test holds
// the two topologies bitwise-equal on exactly this property).
//
// Failure model:
//   - Every RPC is deadline-bounded; a transport failure (daemon
//     killed, injected net.read/net.write fault) surfaces as a typed
//     kUnavailable / kDeadlineExceeded / kDataLoss — never a hang.
//   - A shard whose score RPC fails is ejected from routing on the
//     spot and its rows are re-picked ONCE among the survivors (the
//     rendezvous hash reassigns its keys deterministically); a second
//     failure returns the typed error per row.
//   - A prober thread runs the same ShardHealthFsm lifecycle the
//     in-process HealthMonitor runs — stalled here meaning the probe
//     RPC failed OR the daemon reports pending work with no completed
//     progress — ejecting dead daemons and readmitting them after K
//     healthy probes (e.g. after an operator restarts the process).
//   - Both ejectors go through the fleet core (serve/fleet/fleet_core.h)
//     ShardAvailability set: the last routable shard is never ejected.
//
// PushRolling runs the core's RolloutDriver, as RollingUpdate does; a
// shard's swap is RemoteShardClient::Push, its revert kPushRevert.

#ifndef FAIRDRIFT_SERVE_NET_REMOTE_FLEET_H_
#define FAIRDRIFT_SERVE_NET_REMOTE_FLEET_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "serve/fleet/fleet.h"
#include "serve/fleet/health.h"
#include "serve/net/wire.h"
#include "serve/snapshot_manifest.h"

namespace fairdrift {
namespace net {

/// "host:port" -> parts. kInvalidArgument on a malformed address.
Status ParseHostPort(const std::string& address, std::string* host,
                     uint16_t* port);

/// One shard daemon endpoint. Thread-safe: RPCs serialize on an internal
/// mutex over one persistent connection, reconnecting once per call when
/// the cached connection has gone stale (daemon restarted) before
/// reporting the transport error.
class RemoteShardClient {
 public:
  RemoteShardClient(std::string host, uint16_t port,
                    std::chrono::milliseconds io_timeout);

  const std::string& host() const { return host_; }
  uint16_t port() const { return port_; }

  /// Scores `request` remotely; outcomes come back in row order. When
  /// `trace` is non-null the request frame carries the trace extension
  /// (sender tier linkage — the daemon parents every sampled row of the
  /// frame under trace->parent_span_id).
  Result<std::vector<WireRowOutcome>> ScoreBatch(
      const WireScoreRequest& request,
      const FrameTraceContext* trace = nullptr);

  /// Liveness + progress counters.
  Result<WireHealthProbe> Probe();

  /// The daemon's full ServerStats::View.
  Result<ServerStats::View> Stats();

  /// The daemon's Prometheus-style metrics exposition (kMetrics scrape).
  Result<std::string> Metrics();

  /// Push phase 1: offer `manifest`; returns the chunk names the daemon
  /// needs (its checksum diff against what it already holds).
  Result<std::vector<std::string>> PushManifest(
      const SnapshotManifest& manifest);

  /// Push phase 2: one named chunk's bytes.
  Status PushChunk(const std::string& name, const std::string& bytes);

  /// Push phase 3 result.
  struct CommitReply {
    uint64_t snapshot_version = 0;
    bool degraded = false;
    std::string note;
  };
  Result<CommitReply> PushCommit();

  /// The whole push conversation: PushManifest, each chunk the receiver
  /// asks for, then PushCommit.
  struct PushReply : CommitReply {
    size_t chunks_sent = 0;
    uint64_t bytes_sent = 0;
  };
  Result<PushReply> Push(const ChunkedSnapshot& chunked);

  /// Rolls the daemon back to its pre-commit snapshot; returns the
  /// version it serves again.
  Result<uint64_t> PushRevert();

  /// Drops the cached connection (next RPC reconnects).
  void Disconnect();

 private:
  /// One request/reply exchange; reconnects once on a stale connection.
  /// `trace` non-null sends the frame with the trace extension.
  Result<Frame> Call(FrameType request, const std::string& payload,
                     FrameType expected_reply,
                     const FrameTraceContext* trace = nullptr);

  std::string host_;
  uint16_t port_ = 0;
  std::chrono::milliseconds io_timeout_;
  std::mutex mu_;
  TcpConnection conn_;       // guarded by mu_
  bool connected_ = false;   // guarded by mu_
};

struct RemoteFleetOptions {
  FleetRoutingPolicy routing = FleetRoutingPolicy::kHashRow;
  /// Per-RPC deadline (connect + frame send + frame receive each).
  std::chrono::milliseconds io_timeout = std::chrono::milliseconds(5000);
  /// Prober cadence. The prober starts with the fleet unless
  /// start_prober is false (tests step ProbeOnce() deterministically).
  std::chrono::milliseconds probe_interval = std::chrono::milliseconds(100);
  bool start_prober = true;
  /// ShardHealthFsm thresholds (same meaning as HealthMonitorOptions).
  size_t dead_after_stalled_probes = 3;
  size_t readmit_after_healthy_probes = 3;
};

/// Router over N remote shard daemons. See file comment.
class RemoteFleet : public ShardDirectory {
 public:
  /// `addresses` are "host:port" daemon endpoints. Each must answer a
  /// health probe at startup (fail-fast on a misconfigured fleet).
  static Result<std::unique_ptr<RemoteFleet>> Connect(
      const std::vector<std::string>& addresses,
      const RemoteFleetOptions& options = {});

  ~RemoteFleet();
  RemoteFleet(const RemoteFleet&) = delete;
  RemoteFleet& operator=(const RemoteFleet&) = delete;

  /// Routes each row by the configured policy, fans sub-batches out to
  /// the picked shards, and reassembles per-row outcomes in input
  /// order. A failed shard is ejected and its rows re-picked once among
  /// the survivors (see file comment). `rows` is row-major
  /// count*width; outcomes.size() == count always.
  Result<std::vector<WireRowOutcome>> ScoreBatch(
      const std::vector<double>& rows, size_t width,
      std::chrono::nanoseconds deadline = std::chrono::nanoseconds{0});

  /// Single-row convenience over ScoreBatch: the score, or the row's
  /// typed error.
  Result<ScoreResult> Score(
      const std::vector<double>& row,
      std::chrono::nanoseconds deadline = std::chrono::nanoseconds{0});

  /// Incremental rolling push (see file comment), with the report of
  /// ScoringFleet::RollingUpdate; each committed entry's `version` is
  /// what its daemon committed.
  Result<RollingUpdateReport> PushRolling(
      const ChunkedSnapshot& chunked,
      const RollingUpdateOptions& options = {});

  /// Fleet-wide stats: one Stats() RPC per daemon, each reply folded
  /// with ServerStats::View::MergeFrom (a daemon histogram from a
  /// mismatched build is skipped, not misread), audit tallies summed.
  /// Unreachable shards contribute nothing (num_shards still counts
  /// them; shard_versions reports the last probed version).
  FleetStatsView stats() const;

  /// One synchronous probe sweep (the prober thread's body). Exposed so
  /// tests drive the eject/readmit lifecycle without sleeping.
  void ProbeOnce();

  /// Manual ejection/readmission (the prober does this automatically).
  Status EjectShard(size_t s) { return shards_.Eject(s); }
  Status ReadmitShard(size_t s) { return shards_.Readmit(s); }

  /// Stops the prober and closes all connections. Idempotent.
  void Stop();

  RemoteShardClient* shard_client(size_t s) { return clients_[s].get(); }

  // ShardDirectory (the routing policies' view):
  size_t num_shards() const override { return clients_.size(); }
  bool ShardAvailable(size_t s) const override {
    return shards_.available(s);
  }
  size_t ShardLoad(size_t s) const override {
    return last_load_[s].load(std::memory_order_relaxed);
  }

  /// Lifecycle counters (mirrors the FleetStatsView fields).
  uint64_t ejections() const { return shards_.counters().ejections; }
  uint64_t readmissions() const { return shards_.counters().readmissions; }

 private:
  RemoteFleet(const RemoteFleetOptions& options,
              std::vector<std::unique_ptr<RemoteShardClient>> clients);

  void ProbeLoop();

  RemoteFleetOptions options_;
  std::vector<std::unique_ptr<RemoteShardClient>> clients_;
  ShardRouter router_;
  ShardAvailability shards_;
  RolloutDriver rollouts_{&shards_};
  std::unique_ptr<std::atomic<size_t>[]> last_load_;

  // Prober state (probe thread or ProbeOnce callers; serialized by mu_).
  struct ProbeState {
    ShardHealthFsm fsm;
    uint64_t last_completed = 0;
    bool have_baseline = false;
    uint64_t last_version = 0;
  };
  mutable std::mutex mu_;
  std::vector<ProbeState> probe_states_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::thread probe_thread_;
  std::once_flag stop_once_;
};

}  // namespace net
}  // namespace fairdrift

#endif  // FAIRDRIFT_SERVE_NET_REMOTE_FLEET_H_
