// HealthMonitor: shard heartbeat, ejection, restart, and readmission.
//
// A wedged batch (on the shard's dispatch thread or a pool worker) is
// invisible to the router: the shard's queue stays open, requests keep
// landing on it, and every one of them stalls behind the stuck batch.
// The monitor turns "wedged" into an observable, recoverable state:
//
//   kHealthy --stalled probe--> kDegraded --K stalled probes--> kDead
//      ^                                                          |
//      |                                    eject from routing,   |
//      |                                    restart with current  |
//      +-- K healthy probes <-- kRecovering <-- snapshot ---------+
//
// The heartbeat is the dispatcher's progress counter (ServerStats
// completed) crossed with pending work: a shard with queued requests or
// in-flight batches whose completed count is not advancing is STALLED.
// An idle shard (nothing pending) is healthy by definition — no traffic
// is not a fault. Optional queue-depth / EWMA-latency thresholds mark a
// slow-but-alive shard kDegraded without ejecting it.
//
// Ejection reroutes new traffic (ScoringFleet::EjectShard — the hash
// policy rendezvous-reassigns the shard's keys deterministically);
// requests already queued on the shard stay queued behind the wedge and
// complete when it releases. The fleet core's one ejection rule
// (serve/fleet/fleet_core.h) never ejects the last routable shard, so a
// fleet whose every shard wedges keeps one routed. Restart
// (ScoringFleet::RestartShard) swaps in a fresh server with the shard's
// current snapshot, then drains the old one — so a restart blocks until
// the wedged batch actually releases; the probe thread rides that out
// while survivors serve. After K consecutive healthy probes the shard
// is readmitted.

#ifndef FAIRDRIFT_SERVE_FLEET_HEALTH_H_
#define FAIRDRIFT_SERVE_FLEET_HEALTH_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/fleet/fleet.h"
#include "util/status.h"

namespace fairdrift {

/// Monitor verdict for one shard.
enum class ShardHealth : uint8_t {
  kHealthy = 0,
  /// Stalled or over a degradation threshold, not yet ejected.
  kDegraded = 1,
  /// Stalled for dead_after_stalled_probes consecutive probes; ejected.
  kDead = 2,
  /// Restarted (or awaiting restart) and accumulating healthy probes
  /// toward readmission.
  kRecovering = 3,
};

const char* ShardHealthName(ShardHealth health);

/// The per-shard transition core of the health state machine, factored
/// out of HealthMonitor so the network tier's remote prober
/// (serve/net/remote_fleet.h) runs the exact same
/// healthy -> degraded -> dead -> eject -> recovering -> readmit
/// lifecycle over probe RPCs that the in-process monitor runs over
/// shared-memory counters. Pure state: the caller performs the eject /
/// readmit / restart side effects its verdicts call for.
class ShardHealthFsm {
 public:
  struct Limits {
    /// Consecutive stalled probes before kDead (the first already marks
    /// kDegraded).
    size_t dead_after_stalled_probes = 3;
    /// Consecutive healthy probes an ejected shard needs to readmit.
    size_t readmit_after_healthy_probes = 3;
  };

  /// What one observation asks the caller to do.
  struct Verdict {
    ShardHealth health = ShardHealth::kHealthy;
    /// The shard just crossed into kDead: remove it from routing.
    bool eject = false;
    /// Recovery threshold met: return the shard to routing.
    bool readmit = false;
  };

  /// Folds one probe. `stalled` = pending work with no progress since
  /// the last probe (for a remote shard: also an unreachable or failed
  /// probe RPC). `degraded_hint` = slow-but-alive thresholds tripped.
  /// `ejected` = the shard is currently out of routing (by this
  /// monitor's verdict or out-of-band, e.g. an operator).
  Verdict Observe(bool stalled, bool degraded_hint, bool ejected,
                  const Limits& limits);

  /// The shard was rebuilt in place; accumulate recovery probes anew.
  void NoteRestarted();

  ShardHealth health() const { return health_; }

 private:
  ShardHealth health_ = ShardHealth::kHealthy;
  size_t stalled_probes_ = 0;
  size_t healthy_probes_ = 0;
};

struct HealthMonitorOptions {
  /// Time between probe sweeps over the shards.
  std::chrono::nanoseconds probe_interval = std::chrono::milliseconds(25);
  /// Consecutive stalled probes before a shard is declared kDead and
  /// ejected. The first stalled probe already marks it kDegraded.
  size_t dead_after_stalled_probes = 3;
  /// Consecutive healthy probes an ejected shard needs to be readmitted.
  size_t readmit_after_healthy_probes = 3;
  /// Restart a dead shard (fresh server, current snapshot) right after
  /// ejecting it. The restart blocks the probe thread until the shard's
  /// in-flight batches release; survivors keep serving meanwhile. When
  /// false the shard stays ejected (kDead) until an operator restarts
  /// or readmits it.
  bool auto_restart = true;
  /// When > 0: a queue depth above this marks the shard kDegraded even
  /// while it is making progress.
  size_t degraded_queue_depth = 0;
  /// When > 0: an EWMA batch latency above this (ms) marks the shard
  /// kDegraded even while it is making progress.
  double degraded_ewma_latency_ms = 0.0;
};

/// One probe thread watching one fleet. Start/Stop bracketed; the fleet
/// must outlive the monitor's Stop.
class HealthMonitor {
 public:
  HealthMonitor() = default;
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Starts probing `fleet`. Fails FailedPrecondition when already
  /// running, InvalidArgument on a null fleet or zero thresholds.
  Status Start(ScoringFleet* fleet, const HealthMonitorOptions& options = {});

  /// Stops the probe thread. Idempotent; called by the destructor.
  void Stop();

  /// Monitor statistics + per-shard verdicts.
  struct View {
    /// Probe sweeps completed.
    uint64_t probes = 0;
    /// Shards this monitor ejected / restarted / readmitted.
    uint64_t ejections = 0;
    uint64_t restarts = 0;
    uint64_t readmissions = 0;
    std::vector<ShardHealth> shard_health;
  };
  View stats() const;

  /// Runs one probe sweep immediately on the caller's thread (the same
  /// sweep the probe thread runs every probe_interval). Exposed so tests
  /// can step the state machine deterministically without sleeping.
  void ProbeOnce();

 private:
  struct ShardState {
    ShardHealthFsm fsm;
    uint64_t last_completed = 0;
  };

  void ProbeLoop();

  ScoringFleet* fleet_ = nullptr;
  HealthMonitorOptions options_;

  mutable std::mutex mu_;
  std::condition_variable stop_cv_;
  bool running_ = false;
  bool stop_requested_ = false;
  uint64_t probes_ = 0;
  uint64_t ejections_ = 0;
  uint64_t restarts_ = 0;
  uint64_t readmissions_ = 0;
  std::vector<ShardState> shards_;
  std::thread probe_thread_;
};

}  // namespace fairdrift

#endif  // FAIRDRIFT_SERVE_FLEET_HEALTH_H_
