// Deterministic fault injection for robustness testing.
//
// Production failure paths — drain stalls, torn snapshot reads, wedged
// batch workers, load failures — are rare by construction, which makes
// them untestable by waiting for them. FaultInjector turns each one into
// a named, seeded, replayable event: code marks a site with
// FAULT_POINT("fleet.drain") and a test (or the FAULT_SEED/FAULT_SITES
// environment) arms a rule that decides, deterministically from
// (seed, site, hit index), which hits fire. The same seed always fires
// the same hits, so a failing fault run replays exactly.
//
// Sites are cheap when disarmed: FAULT_POINT compiles to one relaxed
// atomic load (branch-predicted false in production). Builds that must
// not carry the sites at all compile them out entirely with
// -DFAIRDRIFT_NO_FAULT_INJECTION (CMake: -DFAIRDRIFT_FAULT_INJECTION=OFF).
//
// What a fired rule does is the SITE's decision, not the injector's: the
// injector only answers "does this hit fire?"; the drain site turns a
// fire into a DeadlineExceeded, the load site into a DataLoss, the wedge
// site blocks inside Hit() until the rule is cleared — so every failure
// is typed exactly like its real counterpart and flows through the real
// recovery machinery.
//
// Known sites (grep for FAULT_POINT to enumerate):
//   fleet.drain           ScoringServer::Quiesce stalls (arg = shard tag)
//   fleet.swap            RollingUpdate's per-shard snapshot swap fails
//   server.wedge          the thread scoring a batch (dispatcher or pool
//                         worker) wedges mid-batch (arg = shard tag)
//   queue.pop             RequestQueue::PopBatch delays (kDelay rules)
//   watcher.load          SnapshotWatcher's verified load fails
//   snapshot.load         LoadSnapshot sees a torn read
//   snapshot.density      LoadSnapshot's density section is corrupt
//   snapshot.save.partial SaveSnapshot writes half its tmp file and fails
//   snapshot.save.crash   SaveSnapshot writes half its tmp file and
//                         _exit(42)s — the crash-during-save smoke
//   audit.append          AuditLog::Append fails before writing (the
//                         record is lost, the checksum chain stays valid)
//   audit.fsync           AuditLog::Sync's fsync fails after the write
//   net.accept            TcpListener::Accept drops the connection after
//                         the kernel handshake
//   net.read              TcpConnection::RecvAll truncates mid-buffer
//                         (peer sees a partial read, conn is closed)
//   net.write             TcpConnection::SendAll truncates mid-buffer
//   net.push.chunk        shard daemon rejects a pushed snapshot chunk
//                         with kDataLoss (arg = chunk index)
//   trace.append          TraceLog::Append fails before writing (the
//                         span record is lost, the chain stays valid,
//                         scoring is never affected)
//   trace.fsync           TraceLog::Sync's fsync fails after the write

#ifndef FAIRDRIFT_UTIL_FAULT_H_
#define FAIRDRIFT_UTIL_FAULT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "util/status.h"

namespace fairdrift {

/// What a triggered fault site does on a firing hit.
enum class FaultAction : uint8_t {
  /// Hit() returns true; the site converts that into its typed failure
  /// (DeadlineExceeded at a drain barrier, DataLoss at a load, ...).
  kFail = 0,
  /// Hit() sleeps the rule's delay, then returns false (proceed).
  kDelay = 1,
  /// Hit() blocks until the rule is cleared or the injector disarmed,
  /// then returns false — a wedged worker, releasable from the test.
  kWedge = 2,
};

/// When and how a site fires. All counting is per site.
struct FaultRule {
  FaultAction action = FaultAction::kFail;
  /// Hits that pass untouched before the rule starts considering fires.
  uint64_t skip = 0;
  /// Stop firing after this many fires (the transient-fault knob:
  /// max_fires=2 fails twice, then heals).
  uint64_t max_fires = UINT64_MAX;
  /// Chance an eligible hit fires, decided by a deterministic coin from
  /// (seed, site, hit index) — the same seed replays the same fires.
  double probability = 1.0;
  /// Sleep applied by kDelay fires.
  std::chrono::nanoseconds delay{0};
  /// When set, only hits whose site argument matches fire (e.g. a shard
  /// index, so one shard of a fleet wedges while the rest stay healthy).
  std::optional<uint64_t> arg;
};

/// Process-global, seeded, site-keyed fault injector.
class FaultInjector {
 public:
  /// The process-wide injector every FAULT_POINT consults.
  static FaultInjector& Global();

  /// Arms the injector with `seed`. Counters reset; rules persist until
  /// Disarm or ClearRule.
  void Arm(uint64_t seed);

  /// Disarms: clears every rule and counter and releases wedged threads.
  void Disarm();

  /// Cheap armed probe (the FAULT_POINT fast path).
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  uint64_t fault_seed() const;

  /// Installs (or replaces) the rule for `site`.
  void SetRule(const std::string& site, const FaultRule& rule);

  /// Removes `site`'s rule and releases threads wedged at it.
  void ClearRule(const std::string& site);

  /// Total hits / fires recorded at `site` since Arm.
  uint64_t hits(const std::string& site) const;
  uint64_t fires(const std::string& site) const;

  /// Arms from the environment:
  ///   FAULT_SEED=<u64>       required to arm
  ///   FAULT_SITES=site[:k=v[,k=v...]][;site2...]   optional rules, keys:
  ///     action=fail|delay|wedge  skip=N  fires=N  p=0.5  delay_ms=N  arg=N
  /// Returns OK without arming when FAULT_SEED is unset; InvalidArgument
  /// on a malformed spec.
  Status ArmFromEnv();

  /// One hit at `site`. Returns true when the site should fail; applies
  /// kDelay sleeps and kWedge blocking internally. Use via FAULT_POINT.
  bool Hit(const char* site, uint64_t arg = 0);

 private:
  struct SiteState {
    FaultRule rule;
    bool has_rule = false;
    uint64_t hits = 0;
    uint64_t fires = 0;
    /// Generation bumped by ClearRule/Disarm so wedged threads wake.
    uint64_t wedge_generation = 0;
  };

  mutable std::mutex mu_;
  std::condition_variable wedge_cv_;
  std::atomic<bool> armed_{false};
  uint64_t seed_ = 0;
  std::map<std::string, SiteState> sites_;
};

#ifdef FAIRDRIFT_NO_FAULT_INJECTION
#define FAULT_POINT(site) false
#define FAULT_POINT_ARG(site, arg) false
#else
/// True when the armed injector fires the fault at `site` on this hit.
/// Disarmed cost: one relaxed atomic load, no call.
#define FAULT_POINT(site)                            \
  (::fairdrift::FaultInjector::Global().armed() &&   \
   ::fairdrift::FaultInjector::Global().Hit(site))
#define FAULT_POINT_ARG(site, arg)                   \
  (::fairdrift::FaultInjector::Global().armed() &&   \
   ::fairdrift::FaultInjector::Global().Hit(site, (arg)))
#endif

}  // namespace fairdrift

#endif  // FAIRDRIFT_UTIL_FAULT_H_
