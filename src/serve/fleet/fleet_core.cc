#include "serve/fleet/fleet_core.h"

#include <algorithm>
#include <thread>

#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace fairdrift {

namespace {

// Each retry waits kBackoffMultiplier times longer than the last, scaled
// by a factor drawn from [1 - kBackoffJitter, 1 + kBackoffJitter).
constexpr int kBackoffMultiplier = 2;
constexpr double kBackoffJitter = 0.25;

}  // namespace

const char* RolloutStateName(RolloutState state) {
  switch (state) {
    case RolloutState::kCommitted:
      return "committed";
    case RolloutState::kRolledBack:
      return "rolled-back";
  }
  return "?";
}

ShardAvailability::ShardAvailability(size_t num_shards)
    : num_shards_(num_shards),
      draining_(std::make_unique<std::atomic<bool>[]>(num_shards)),
      ejected_(std::make_unique<std::atomic<bool>[]>(num_shards)) {}

Status ShardAvailability::Eject(size_t s) {
  if (s >= num_shards_) {
    return Status::OutOfRange(
        StrFormat("EjectShard: shard %zu of %zu", s, num_shards_));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (ejected(s)) return Status::OK();
  bool other_routable = false;
  for (size_t i = 0; i < num_shards_ && !other_routable; ++i) {
    other_routable = i != s && available(i);
  }
  if (!other_routable) {
    return Status::FailedPrecondition(
        StrFormat("EjectShard: shard %zu is the last routable shard", s));
  }
  ejected_[s].store(true, std::memory_order_release);
  ++counters_.ejections;
  return Status::OK();
}

Status ShardAvailability::Readmit(size_t s) {
  if (s >= num_shards_) {
    return Status::OutOfRange(
        StrFormat("ReadmitShard: shard %zu of %zu", s, num_shards_));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (ejected_[s].exchange(false, std::memory_order_acq_rel)) {
    ++counters_.readmissions;
  }
  return Status::OK();
}

Result<RollingUpdateReport> RolloutDriver::Run(
    const RolloutTarget& target, const RollingUpdateOptions& options) {
  if (options.max_attempts_per_shard == 0) {
    return Status::InvalidArgument("rolling update: zero attempts per shard");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = shards_->size();
  RollingUpdateReport report;
  report.shards.reserve(n);
  Rng jitter(options.backoff_seed);
  bool exhausted = false;
  for (size_t s = 0; s < n && !exhausted; ++s) {
    ShardRolloutReport& shard = report.shards.emplace_back();
    shard.shard = s;
    std::chrono::nanoseconds backoff = options.initial_backoff;
    for (;;) {
      ++shard.attempts;
      ++report.total_attempts;
      shards_->SetDraining(s, true);
      WallTimer stall;
      Status swapped = target.swap(s, &shard.version);
      // Back in rotation between attempts and on every exit path: a
      // stalled rollout must never leave the shard routed around.
      shards_->SetDraining(s, false);
      if (swapped.ok()) {
        shard.updated = true;
        shard.stall_ms = stall.ElapsedMillis();
        report.max_stall_ms = std::max(report.max_stall_ms, shard.stall_ms);
        ++report.shards_updated;
        break;
      }
      shard.last_error = swapped.message();
      if (shard.attempts == options.max_attempts_per_shard) {
        exhausted = true;
        break;
      }
      // The shard serves while whatever stalled its swap drains.
      double jittered = static_cast<double>(backoff.count()) *
                        jitter.Uniform(1.0 - kBackoffJitter,
                                       1.0 + kBackoffJitter);
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(static_cast<int64_t>(jittered)));
      backoff *= kBackoffMultiplier;
    }
  }
  if (!exhausted) {
    shards_->NoteRollout(RolloutState::kCommitted);
    return report;
  }

  const ShardRolloutReport& failed = report.shards.back();
  report.state = RolloutState::kRolledBack;
  report.failure = StrFormat(
      "shard %zu failed %zu attempt(s) with %zu of %zu shard(s) already "
      "updated: %s",
      failed.shard, failed.attempts, report.shards_updated, n,
      failed.last_error.c_str());
  // Reverse order, each revert out of rotation like its swap, so the
  // fleet exits with zero version skew.
  std::vector<std::string> stranded;
  for (size_t i = report.shards.size(); i-- > 0;) {
    ShardRolloutReport& shard = report.shards[i];
    if (!shard.updated) continue;
    shards_->SetDraining(shard.shard, true);
    WallTimer stall;
    Status reverted = target.revert(shard.shard);
    shards_->SetDraining(shard.shard, false);
    if (!reverted.ok()) {
      shard.last_error = "revert failed: " + reverted.message();
      stranded.push_back(StrFormat("%zu (%s)", shard.shard,
                                   reverted.message().c_str()));
      continue;
    }
    shard.rolled_back = true;
    shard.rollback_stall_ms = stall.ElapsedMillis();
    report.rollback_stall_ms += shard.rollback_stall_ms;
  }
  shards_->NoteRollout(RolloutState::kRolledBack);
  if (!stranded.empty()) {
    return Status::Internal("rolling update rollback left shard(s) " +
                            Join(stranded, ", ") +
                            " on the new snapshot; " + report.failure);
  }
  return report;
}

}  // namespace fairdrift
