// ScoringFleet: N ScoringServer shards behind one router.
//
// One ScoringServer runs one dispatch thread over one request queue —
// fine for a core or two, a bottleneck on a multi-core box. The fleet is
// the sharded deployment shape: each shard owns its own RequestQueue,
// dispatch thread, micro-batcher, admission controller, and (optionally)
// its own worker pool, so aggregate dispatch capacity scales with the
// shard count instead of serializing on one queue's mutex.
//
//   clients --Submit--> [ShardRouter] --> shard_i (a full ScoringServer)
//
// Routing policies (ShardRouter):
//   kRoundRobin       cheapest; an atomic cursor walks the shards.
//   kLeastQueueDepth  balances bursty clients by each shard's queue
//                     depth + in-flight batches (ServerStats-style load
//                     signal, sampled racily — good enough to steer).
//   kHashRow          XXH64 over the request row's bytes: a given row
//                     always lands on the same shard, so a replayed
//                     trace distributes identically run after run.
//
// Because every shard scores through the same immutable ModelSnapshot
// machinery, per-row results are bitwise identical whichever shard
// serves them (the snapshot determinism contract) — sharding changes
// throughput, never scores.
//
// RollingUpdate pushes a new snapshot shard-by-shard through the fleet
// core's RolloutDriver (serve/fleet/fleet_core.h: retry with backoff,
// reverse-order rollback on an exhausted shard), which the remote
// fleet's PushRolling runs too. Here a shard's swap is a drain barrier
// (ScoringServer::Quiesce: its queue + in-flight batches empty) then
// UpdateSnapshot, so each admitted request scores against one
// consistent snapshot version; the revert drains and swaps the prior
// snapshot back (through a barrier that stalls again: per-batch
// isolation keeps that safe). At most one shard is out of rotation at a
// time, and FleetStats reports per-shard served versions, so
// mid-rollout skew is observable.
//
// A wedged or dead shard can be EJECTED from routing (all three
// policies skip it; the hash policy rendezvous-reassigns its keys
// deterministically to survivors), RESTARTED with its current snapshot,
// and READMITTED — see serve/fleet/health.h for the monitor that
// automates this. The core's ejection rule never ejects the last
// routable shard.

#ifndef FAIRDRIFT_SERVE_FLEET_FLEET_H_
#define FAIRDRIFT_SERVE_FLEET_FLEET_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/audit/auditor.h"
#include "serve/fleet/fleet_core.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/ticket.h"
#include "util/status.h"

namespace fairdrift {

class ScoringFleet;

/// How the fleet spreads requests over its shards.
enum class FleetRoutingPolicy {
  kRoundRobin,
  kLeastQueueDepth,
  kHashRow,
};

/// Display name ("round-robin", "least-queue", "hash-row").
const char* FleetRoutingPolicyName(FleetRoutingPolicy policy);

/// Parses a policy name as printed by FleetRoutingPolicyName (also
/// accepts the CLI shorthands "rr", "least", "hash"). kInvalidArgument
/// on anything else.
Result<FleetRoutingPolicy> ParseFleetRoutingPolicy(const std::string& name);

/// What a ShardRouter needs to know about the shard set it routes over.
/// ScoringFleet implements it for in-process shards; the network tier's
/// RemoteFleet (serve/net/remote_fleet.h) implements it for shard daemon
/// processes — one router, one set of policies, both topologies.
class ShardDirectory {
 public:
  virtual ~ShardDirectory() = default;
  virtual size_t num_shards() const = 0;
  /// Routable: neither draining under an update nor ejected.
  virtual bool ShardAvailable(size_t s) const = 0;
  /// Load signal for least-queue routing (queued + in-flight charge).
  virtual size_t ShardLoad(size_t s) const = 0;
};

/// Pluggable shard-selection policy. Thread-safe; one router per fleet.
class ShardRouter {
 public:
  ShardRouter(FleetRoutingPolicy policy, size_t num_shards);

  /// Shard for a request row of `width` doubles. Unavailable shards —
  /// draining under a rolling update, or ejected by the health monitor —
  /// are skipped: round-robin/least-queue walk or scan past them, and
  /// the hash policy rendezvous-reassigns the row deterministically
  /// among the available shards (a given row always lands on the same
  /// survivor for a given available set, and returns to its home shard
  /// on readmission). When every shard is unavailable the nominal pick
  /// is returned anyway so the fleet never refuses on routing grounds.
  size_t Pick(const double* row, size_t width, const ShardDirectory& fleet);

  FleetRoutingPolicy policy() const { return policy_; }

 private:
  FleetRoutingPolicy policy_;
  size_t num_shards_;
  std::atomic<uint64_t> cursor_{0};
};

/// Fleet configuration.
struct FleetOptions {
  /// Number of ScoringServer shards.
  size_t num_shards = 2;
  FleetRoutingPolicy routing = FleetRoutingPolicy::kLeastQueueDepth;
  /// Per-shard server configuration (batching, admission, inflight cap).
  /// `shard.pool` is honored only when `workers_per_shard` is 0.
  ServerOptions shard;
  /// When non-zero, each shard gets its own private ThreadPool with this
  /// many workers (owned by the fleet) for its full batches — full
  /// isolation, no cross-shard contention on one task queue. 0 = all
  /// shards share `shard.pool` (the global pool when that is null).
  /// Batches under the cap score on each shard's own dispatch thread
  /// either way.
  size_t workers_per_shard = 0;
  /// Fairness audit tier (serve/audit/). When audit.enabled the fleet
  /// owns a FleetAuditor and wires one ShardAuditor into each shard
  /// (`shard.audit` is then ignored — the fleet overwrites it).
  AuditOptions audit;
};

/// Fleet-wide statistics: every shard's ServerStats::View folded with
/// View::MergeFrom (so fleet percentiles come from the merged latency
/// histograms, never from averaged per-shard percentiles), plus what
/// only a fleet has: per-shard load, snapshot-version skew, the
/// lifecycle counters of its ShardAvailability set, and the audit tier.
struct FleetStatsView : ServerStats::View, ShardAvailability::Counters {
  size_t num_shards = 0;
  /// density_outliers / density_checked (0 before any row is checked) —
  /// the fleet drift signal. Computed from the summed counts, not an
  /// average of per-shard rates, so unevenly loaded shards weigh
  /// correctly; under sampled monitoring its staleness is bounded by the
  /// sampling interval (~sample_modulus rows per fresh data point per
  /// shard).
  double outlier_rate = 0.0;
  /// Sampled per-shard queue depths (the router's load signal).
  std::vector<size_t> queue_depths;
  /// Per-shard density outlier rate (checked-row fraction below the
  /// floor, 0 before any checked row) — the per-shard drift signal the
  /// serve status line prints next to each shard's served version.
  std::vector<double> shard_outlier_rates;
  /// Completed requests per shard (routing-balance witness).
  std::vector<uint64_t> shard_completed;
  /// Snapshot version each shard currently serves new batches from.
  std::vector<uint64_t> shard_versions;
  /// min/max over shard_versions: equal outside a rollout, skewed by at
  /// most one generation during one.
  uint64_t min_snapshot_version = 0;
  uint64_t max_snapshot_version = 0;
  /// Per-shard ejected flag (1 = currently out of routing).
  std::vector<uint8_t> shard_ejected;
  /// Fairness audit aggregates (audit.enabled == false when the fleet
  /// was built without the audit tier).
  FleetAuditView audit;

  /// Sets outlier_rate from the folded density counters, the version
  /// range from shard_versions, and the lifecycle counters and
  /// shard_ejected from `shards`: both fleets' last step after the fold.
  void DeriveFleetSignals(const ShardAvailability& shards);
};

/// density_outliers / density_checked of one view (0 before any checked
/// row).
double OutlierRate(const ServerStats::View& view);

/// N scoring-server shards behind a router, updated as one unit.
class ScoringFleet : public ShardDirectory {
 public:
  /// Validates options, builds the shards (each already serving), and
  /// installs `snapshot` on all of them.
  static Result<std::unique_ptr<ScoringFleet>> Create(
      std::shared_ptr<const ModelSnapshot> snapshot,
      const FleetOptions& options = {});

  /// Stops every shard (drains; see ScoringServer::Stop).
  ~ScoringFleet();

  ScoringFleet(const ScoringFleet&) = delete;
  ScoringFleet& operator=(const ScoringFleet&) = delete;

  /// Routes one request row to a shard and submits it there. Admission,
  /// deadlines, and ticket semantics are the shard server's.
  Result<ScoreTicket> Submit(
      std::vector<double> row,
      std::chrono::nanoseconds deadline_after = std::chrono::nanoseconds{0});

  /// Submit with audit metadata (explicit group and/or ground-truth
  /// label) attached; see ScoringServer::Submit.
  Result<ScoreTicket> Submit(
      std::vector<double> row, const RequestAuditInfo& audit,
      std::chrono::nanoseconds deadline_after = std::chrono::nanoseconds{0});

  /// Submit + Wait (not callable from a shard pool's own workers).
  Result<ScoreResult> ScoreSync(
      std::vector<double> row,
      std::chrono::nanoseconds deadline_after = std::chrono::nanoseconds{0});

  /// Immediate fleet-wide swap: every shard's next batch scores the new
  /// snapshot (no drain barrier — in-flight batches finish on the old one
  /// per the per-batch isolation contract). Use RollingUpdate when whole-
  /// shard version consistency during the push matters.
  Status UpdateSnapshot(std::shared_ptr<const ModelSnapshot> snapshot);

  /// Shard-by-shard drain + swap (see file comment). A rollout that
  /// rolled back is an OK result with report.state == kRolledBack;
  /// callers decide whether that is an error.
  Result<RollingUpdateReport> RollingUpdate(
      std::shared_ptr<const ModelSnapshot> snapshot,
      const RollingUpdateOptions& options = {});

  /// Removes shard `s` from routing (every policy skips it; the hash
  /// policy rendezvous-reassigns its keys deterministically). Requests
  /// already queued on the shard still score. Idempotent; refuses the
  /// last routable shard (see ShardAvailability::Eject).
  Status EjectShard(size_t s) { return shards_.Eject(s); }

  /// Returns an ejected shard to routing. Idempotent.
  Status ReadmitShard(size_t s) { return shards_.Readmit(s); }

  /// Rebuilds shard `s` in place: a fresh ScoringServer is created with
  /// the shard's current snapshot and options and swapped into the slot;
  /// the old server is then stopped, which drains its queue through the
  /// normal scoring path (every admitted ticket completes). Blocks until
  /// the old server's in-flight batches finish — a still-wedged batch
  /// holds the restart until it unwedges. Usually called on an ejected
  /// shard; does not change the ejected flag.
  Status RestartShard(size_t s);

  /// Stops all shards. Idempotent; called by the destructor.
  void Stop();

  FleetStatsView stats() const;

  /// The fleet's auditor (null when options.audit.enabled is false).
  /// Flush() it before reading the audit log from another process.
  FleetAuditor* auditor() const { return auditor_.get(); }

  size_t num_shards() const override { return servers_.size(); }
  /// Owning reference to shard `s`'s current server — safe against a
  /// concurrent RestartShard swapping the slot.
  std::shared_ptr<ScoringServer> shard_ref(size_t s) const {
    return std::atomic_load(&servers_[s]);
  }
  /// Borrowed pointer; invalidated by RestartShard. Test/bench use.
  ScoringServer* shard(size_t s) { return shard_ref(s).get(); }
  const ScoringServer* shard(size_t s) const { return shard_ref(s).get(); }
  const FleetOptions& options() const { return options_; }

  /// Router load signal: queued requests + a batch-sized pessimistic
  /// charge per in-flight batch on shard `s`.
  size_t ShardLoad(size_t s) const override;

  /// True while a rolling update is draining shard `s`.
  bool ShardDraining(size_t s) const { return shards_.draining(s); }

  /// True while shard `s` is ejected from routing.
  bool ShardEjected(size_t s) const { return shards_.ejected(s); }

  /// Routable: neither draining nor ejected.
  bool ShardAvailable(size_t s) const override {
    return shards_.available(s);
  }

 private:
  ScoringFleet(const FleetOptions& options);

  FleetOptions options_;
  std::vector<std::unique_ptr<ThreadPool>> shard_pools_;
  /// Declared before servers_ so it destructs after them: batch workers
  /// fold into their ShardAuditor until every server has stopped.
  std::unique_ptr<FleetAuditor> auditor_;
  /// Slots are written only by RestartShard, via the shared_ptr atomic
  /// free functions; readers take owning refs through shard_ref(). The
  /// vector itself never resizes after Create.
  std::vector<std::shared_ptr<ScoringServer>> servers_;
  ShardAvailability shards_;
  RolloutDriver rollouts_{&shards_};
  ShardRouter router_;
  /// Serializes RestartShard against itself (slot swaps are atomic for
  /// readers; two concurrent restarts of one shard would leak a stop).
  std::mutex restart_mu_;
  std::atomic<bool> stopped_{false};
};

}  // namespace fairdrift

#endif  // FAIRDRIFT_SERVE_FLEET_FLEET_H_
