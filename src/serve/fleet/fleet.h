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
//   kHashRow          FNV-1a over the request row's bytes: a given row
//                     always lands on the same shard, so a replayed
//                     trace distributes identically run after run.
//
// Because every shard scores through the same immutable ModelSnapshot
// machinery, per-row results are bitwise identical whichever shard
// serves them (the snapshot determinism contract) — sharding changes
// throughput, never scores.
//
// RollingUpdate pushes a new snapshot shard-by-shard: the router stops
// steering traffic to the shard being updated, a drain barrier
// (ScoringServer::Quiesce) waits for its queue + in-flight batches to
// empty, the shard swaps, routing resumes, next shard. At most one shard
// is ever out of rotation, so the fleet keeps serving throughout, and the
// barrier guarantees each admitted request scores against one consistent
// snapshot version. FleetStats reports the per-shard served versions, so
// mid-rollout skew is observable instead of silent.
//
// Failure handling (this layer's robustness contract):
//   - A shard whose drain barrier stalls is RETRIED with exponential
//     backoff + deterministic jitter; between attempts it is back in
//     rotation, so a stalled rollout never starves a shard.
//   - When a shard exhausts its attempts, the rollout ROLLS BACK:
//     already-updated shards return to their prior snapshots in reverse
//     order through the same drain barrier, so the fleet is never left
//     version-skewed. The report's terminal state says which way it went.
//   - A wedged or dead shard can be EJECTED from routing (all three
//     policies skip it; the hash policy rendezvous-reassigns its keys
//     deterministically to survivors), RESTARTED with its current
//     snapshot, and READMITTED — see serve/fleet/health.h for the
//     monitor that automates this.

#ifndef FAIRDRIFT_SERVE_FLEET_FLEET_H_
#define FAIRDRIFT_SERVE_FLEET_FLEET_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/audit/auditor.h"
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

/// Per-shard drain + swap schedule knobs.
struct RollingUpdateOptions {
  /// How long the drain barrier waits for one shard to empty before the
  /// attempt counts as failed.
  std::chrono::nanoseconds drain_timeout = std::chrono::seconds(10);
  /// Drain/swap attempts per shard before the rollout gives up on it.
  size_t max_attempts_per_shard = 3;
  /// Backoff before the second attempt; doubles (backoff_multiplier)
  /// each further attempt. The shard is back in rotation while waiting.
  std::chrono::nanoseconds initial_backoff = std::chrono::milliseconds(10);
  double backoff_multiplier = 2.0;
  /// Jitter fraction: each wait is scaled by a factor drawn uniformly
  /// from [1 - jitter, 1 + jitter] — deterministically from
  /// backoff_seed, so a fault-injected rollout replays exactly.
  double backoff_jitter = 0.25;
  uint64_t backoff_seed = 0;
  /// On exhausted retries, roll already-updated shards back to their
  /// prior snapshots (reverse order, same drain barrier) so the fleet
  /// exits with zero version skew. false restores the legacy abort:
  /// the rollout fails DeadlineExceeded with updated shards keeping the
  /// new snapshot (skew visible in FleetStats until a later rollout).
  bool rollback_on_failure = true;
};

/// How a rolling update terminated.
enum class RolloutState : uint8_t {
  /// Every shard drained and swapped to the new snapshot.
  kCommitted = 0,
  /// A shard exhausted its attempts; updated shards were rolled back to
  /// their prior snapshots. The fleet exits with zero version skew.
  kRolledBack = 1,
};

const char* RolloutStateName(RolloutState state);

/// One shard's slice of a rolling update.
struct ShardRolloutReport {
  size_t shard = 0;
  /// Drain/swap attempts consumed (1 = first try succeeded).
  size_t attempts = 0;
  /// The shard swapped to the new snapshot (possibly rolled back later).
  bool updated = false;
  /// The shard was returned to its prior snapshot by a rollback.
  bool rolled_back = false;
  /// Successful-attempt drain-barrier stall (out-of-rotation time).
  double stall_ms = 0.0;
  /// Rollback drain-barrier stall, when rolled_back.
  double rollback_stall_ms = 0.0;
  /// Last attempt error (empty when the first attempt succeeded).
  std::string last_error;
};

/// What one rolling update did: how many shards swapped, how long each
/// shard's drain barrier stalled it (its only out-of-rotation time —
/// the fleet as a whole never stops serving), and per-shard
/// attempt/outcome detail with the terminal committed/rolled-back state.
struct RollingUpdateReport {
  size_t shards_updated = 0;
  std::vector<double> shard_stall_ms;
  double max_stall_ms = 0.0;
  RolloutState state = RolloutState::kCommitted;
  std::vector<ShardRolloutReport> shards;
  /// Drain/swap attempts summed over shards (== num_shards when nothing
  /// retried).
  size_t total_attempts = 0;
  /// Total rollback drain-barrier stall across rolled-back shards.
  double rollback_stall_ms = 0.0;
  /// Why the rollout rolled back (empty when committed).
  std::string failure;
};

/// Fleet-wide statistics: every shard's ServerStats::View folded with
/// View::MergeFrom (so fleet percentiles come from the merged latency
/// histograms, never from averaged per-shard percentiles), plus what
/// only a fleet has: per-shard load, snapshot-version skew, lifecycle
/// counters and the audit tier.
struct FleetStatsView : ServerStats::View {
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
  /// Completed RollingUpdate calls.
  uint64_t rolling_updates = 0;
  /// Rolling updates that terminated kRolledBack.
  uint64_t rollbacks = 0;
  /// Shards removed from routing (EjectShard — typically the health
  /// monitor on a wedged/dead shard).
  uint64_t ejections = 0;
  /// Shards rebuilt in place with their current snapshot (RestartShard).
  uint64_t restarts = 0;
  /// Ejected shards returned to routing (ReadmitShard).
  uint64_t readmissions = 0;
  /// Per-shard ejected flag (1 = currently out of routing).
  std::vector<uint8_t> shard_ejected;
  /// Fairness audit aggregates (audit.enabled == false when the fleet
  /// was built without the audit tier).
  FleetAuditView audit;

  /// Sets outlier_rate from the folded density counters and the version
  /// range from shard_versions: both fleets' last step after the fold.
  void DeriveFleetSignals();
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

  /// Shard-by-shard drain + swap with retry/backoff and rollback (see
  /// file comment). Serialized against concurrent updates. With
  /// rollback_on_failure (the default) an exhausted shard yields an OK
  /// result whose report.state == kRolledBack — the fleet healed itself;
  /// callers decide whether a rolled-back push is an error. With
  /// rollback disabled, exhaustion fails DeadlineExceeded (the drained
  /// shard is always re-entered into rotation first).
  Result<RollingUpdateReport> RollingUpdate(
      std::shared_ptr<const ModelSnapshot> snapshot,
      const RollingUpdateOptions& options = {});

  /// Removes shard `s` from routing (every policy skips it; the hash
  /// policy rendezvous-reassigns its keys deterministically). Requests
  /// already queued on the shard still score. Idempotent.
  Status EjectShard(size_t s);

  /// Returns an ejected shard to routing. Idempotent.
  Status ReadmitShard(size_t s);

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
  bool ShardDraining(size_t s) const {
    return draining_[s].load(std::memory_order_acquire);
  }

  /// True while shard `s` is ejected from routing.
  bool ShardEjected(size_t s) const {
    return ejected_[s].load(std::memory_order_acquire);
  }

  /// Routable: neither draining nor ejected.
  bool ShardAvailable(size_t s) const override {
    return !ShardDraining(s) && !ShardEjected(s);
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
  std::unique_ptr<std::atomic<bool>[]> draining_;
  std::unique_ptr<std::atomic<bool>[]> ejected_;
  ShardRouter router_;
  std::mutex update_mu_;
  /// Serializes RestartShard against itself (slot swaps are atomic for
  /// readers; two concurrent restarts of one shard would leak a stop).
  std::mutex restart_mu_;
  std::atomic<uint64_t> rolling_updates_{0};
  std::atomic<uint64_t> rollbacks_{0};
  std::atomic<uint64_t> ejections_{0};
  std::atomic<uint64_t> restarts_{0};
  std::atomic<uint64_t> readmissions_{0};
  std::atomic<bool> stopped_{false};
};

}  // namespace fairdrift

#endif  // FAIRDRIFT_SERVE_FLEET_FLEET_H_
