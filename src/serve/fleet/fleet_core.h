// The fleet core: the shard lifecycle that ScoringFleet (in-process
// shards) and RemoteFleet (shard daemons) share beside their ShardRouter.
//
//   ShardAvailability  the draining/ejected flags routing reads, the one
//                      eject/readmit rule, and the lifecycle counters.
//   RolloutDriver      the one rolling update, over the per-shard {swap,
//                      revert} pair (RolloutTarget) a topology supplies.
//
// Ejection rule: any shard but the last routable one may be ejected
// (kFailedPrecondition): with nowhere else to send traffic, the shard's
// own typed errors beat refusing everything. Check and store happen
// under one lock, so two ejectors racing on the last two routable shards
// cannot both pass. A bad index is kOutOfRange; both calls are
// idempotent.
//
// Rolling update: one shard at a time, in index order, each draining
// only while its swap runs. A failed swap is retried after a backoff
// that doubles per attempt, each wait scaled by a factor from
// [0.75, 1.25) drawn off backoff_seed (a fault-injected rollout replays
// exactly); the shard serves while it waits. When a shard exhausts its
// attempts, the swapped shards are reverted in reverse order and the
// call returns OK with state kRolledBack. A failed revert does not stop
// the others; the call then returns kInternal naming every shard left
// on the new snapshot.

#ifndef FAIRDRIFT_SERVE_FLEET_FLEET_CORE_H_
#define FAIRDRIFT_SERVE_FLEET_FLEET_CORE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace fairdrift {

/// Rolling-update schedule knobs.
struct RollingUpdateOptions {
  /// How long the in-process drain barrier waits for a shard to empty
  /// before the attempt fails (a remote push is bounded by its RPCs).
  std::chrono::nanoseconds drain_timeout = std::chrono::seconds(10);
  /// Swap attempts per shard (0 is kInvalidArgument).
  size_t max_attempts_per_shard = 3;
  /// Backoff before the second attempt; doubles each further attempt.
  std::chrono::nanoseconds initial_backoff = std::chrono::milliseconds(10);
  /// Seeds the backoff jitter.
  uint64_t backoff_seed = 0;
};

/// How a rolling update terminated.
enum class RolloutState : uint8_t {
  /// Every shard swapped to the new snapshot.
  kCommitted = 0,
  /// A shard exhausted its attempts; updated shards were reverted to
  /// their prior snapshots. The fleet exits with zero version skew.
  kRolledBack = 1,
};

const char* RolloutStateName(RolloutState state);

/// One shard's slice of a rolling update.
struct ShardRolloutReport {
  size_t shard = 0;
  /// Swap attempts consumed (1 = first try succeeded).
  size_t attempts = 0;
  /// The shard swapped to the new snapshot (possibly reverted later).
  bool updated = false;
  /// The snapshot version the shard served after its swap (when updated).
  uint64_t version = 0;
  /// The shard was returned to its prior snapshot by the rollback.
  bool rolled_back = false;
  /// Out-of-rotation time of the successful attempt.
  double stall_ms = 0.0;
  /// Out-of-rotation time of the revert, when rolled_back.
  double rollback_stall_ms = 0.0;
  /// Last attempt (or revert) error; empty when the first try succeeded.
  std::string last_error;
};

/// What one rolling update did: how many shards swapped, how long each
/// was out of rotation (the fleet as a whole never stops serving), and
/// per-shard detail with the terminal committed/rolled-back state.
struct RollingUpdateReport {
  size_t shards_updated = 0;
  double max_stall_ms = 0.0;
  RolloutState state = RolloutState::kCommitted;
  /// One entry per attempted shard, in shard order: every shard when
  /// committed, up to and including the exhausted one when rolled back.
  std::vector<ShardRolloutReport> shards;
  /// Swap attempts summed over shards.
  size_t total_attempts = 0;
  /// Total revert stall across rolled-back shards.
  double rollback_stall_ms = 0.0;
  /// Why the rollout rolled back (empty when committed).
  std::string failure;
};

/// A fleet's shard flags (lock-free reads: the router reads them per
/// request) and lifecycle counters (behind one mutex with the rule).
class ShardAvailability {
 public:
  explicit ShardAvailability(size_t num_shards);

  size_t size() const { return num_shards_; }
  bool draining(size_t s) const {
    return draining_[s].load(std::memory_order_acquire);
  }
  bool ejected(size_t s) const {
    return ejected_[s].load(std::memory_order_acquire);
  }
  /// Routable: neither draining nor ejected.
  bool available(size_t s) const { return !draining(s) && !ejected(s); }

  /// Takes shard `s` out of rotation for a swap, or puts it back.
  void SetDraining(size_t s, bool on) {
    draining_[s].store(on, std::memory_order_release);
  }

  /// The ejection rule (see file comment).
  Status Eject(size_t s);
  /// Returns an ejected shard to routing. kOutOfRange on a bad index.
  Status Readmit(size_t s);

  struct Counters {
    /// Rolling updates that passed option checks, however they ended.
    uint64_t rolling_updates = 0;
    uint64_t rollbacks = 0;
    /// EjectShard: a health monitor or prober, a failing score RPC, or
    /// an operator took a shard out of routing.
    uint64_t ejections = 0;
    /// Shards rebuilt in place (RestartShard; in-process fleets only).
    uint64_t restarts = 0;
    uint64_t readmissions = 0;
  };
  Counters counters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
  }
  void NoteRestart() {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.restarts;
  }
  void NoteRollout(RolloutState state) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.rolling_updates;
    if (state == RolloutState::kRolledBack) ++counters_.rollbacks;
  }

 private:
  size_t num_shards_;
  std::unique_ptr<std::atomic<bool>[]> draining_;
  std::unique_ptr<std::atomic<bool>[]> ejected_;
  mutable std::mutex mu_;
  Counters counters_;  // guarded by mu_
};

/// One topology's per-shard rollout steps.
struct RolloutTarget {
  /// Drains shard `s` and swaps it to the new snapshot; on success sets
  /// `*version` to the snapshot version the shard now serves.
  std::function<Status(size_t s, uint64_t* version)> swap;
  /// Returns shard `s` to the snapshot it served before its swap.
  std::function<Status(size_t s)> revert;
};

/// Runs rolling updates over one fleet's shards (see file comment).
class RolloutDriver {
 public:
  explicit RolloutDriver(ShardAvailability* shards) : shards_(shards) {}

  /// One rolling update over every shard, holding mutex() throughout.
  Result<RollingUpdateReport> Run(const RolloutTarget& target,
                                  const RollingUpdateOptions& options);

  std::mutex& mutex() { return mu_; }

 private:
  ShardAvailability* shards_;
  std::mutex mu_;
};

}  // namespace fairdrift

#endif  // FAIRDRIFT_SERVE_FLEET_FLEET_CORE_H_
