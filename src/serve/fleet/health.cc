#include "serve/fleet/health.h"

#include "serve/server_stats.h"

namespace fairdrift {

const char* ShardHealthName(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kDegraded:
      return "degraded";
    case ShardHealth::kDead:
      return "dead";
    case ShardHealth::kRecovering:
      return "recovering";
  }
  return "?";
}

ShardHealthFsm::Verdict ShardHealthFsm::Observe(bool stalled,
                                                bool degraded_hint,
                                                bool ejected,
                                                const Limits& limits) {
  Verdict verdict;
  if (ejected) {
    if (health_ != ShardHealth::kDead &&
        health_ != ShardHealth::kRecovering) {
      // Ejected out-of-band (operator); shepherd it back like one of
      // our own restarts.
      health_ = ShardHealth::kRecovering;
      healthy_probes_ = 0;
    }
    // A kDead shard stays dead until a restart flips it to kRecovering;
    // only kRecovering accumulates probes toward readmission.
    if (health_ == ShardHealth::kRecovering) {
      if (stalled) {
        healthy_probes_ = 0;
      } else if (++healthy_probes_ >= limits.readmit_after_healthy_probes) {
        verdict.readmit = true;
        health_ = ShardHealth::kHealthy;
        stalled_probes_ = 0;
        healthy_probes_ = 0;
      }
    }
    verdict.health = health_;
    return verdict;
  }

  if (stalled) {
    ++stalled_probes_;
    healthy_probes_ = 0;
    if (stalled_probes_ >= limits.dead_after_stalled_probes) {
      health_ = ShardHealth::kDead;
      stalled_probes_ = 0;
      verdict.eject = true;
    } else {
      health_ = ShardHealth::kDegraded;
    }
    verdict.health = health_;
    return verdict;
  }

  stalled_probes_ = 0;
  health_ = degraded_hint ? ShardHealth::kDegraded : ShardHealth::kHealthy;
  verdict.health = health_;
  return verdict;
}

void ShardHealthFsm::NoteRestarted() {
  health_ = ShardHealth::kRecovering;
  healthy_probes_ = 0;
}

HealthMonitor::~HealthMonitor() { Stop(); }

Status HealthMonitor::Start(ScoringFleet* fleet,
                            const HealthMonitorOptions& options) {
  if (fleet == nullptr) {
    return Status::InvalidArgument("HealthMonitor: null fleet");
  }
  if (options.dead_after_stalled_probes == 0 ||
      options.readmit_after_healthy_probes == 0) {
    return Status::InvalidArgument(
        "HealthMonitor: probe thresholds must be positive");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) {
    return Status::FailedPrecondition("HealthMonitor: already running");
  }
  fleet_ = fleet;
  options_ = options;
  probes_ = ejections_ = restarts_ = readmissions_ = 0;
  shards_.assign(fleet->num_shards(), ShardState{});
  // Seed the progress counters so the first probe measures advancement
  // from now, not from zero.
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].last_completed = fleet->shard_ref(s)->stats().completed;
  }
  stop_requested_ = false;
  running_ = true;
  probe_thread_ = std::thread([this] { ProbeLoop(); });
  return Status::OK();
}

void HealthMonitor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

void HealthMonitor::ProbeLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    if (stop_cv_.wait_for(lock, options_.probe_interval,
                          [this] { return stop_requested_; })) {
      break;
    }
    lock.unlock();
    ProbeOnce();
    lock.lock();
  }
}

void HealthMonitor::ProbeOnce() {
  ShardHealthFsm::Limits limits;
  limits.dead_after_stalled_probes = options_.dead_after_stalled_probes;
  limits.readmit_after_healthy_probes = options_.readmit_after_healthy_probes;
  std::vector<size_t> to_restart;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t s = 0; s < shards_.size(); ++s) {
      ShardState& state = shards_[s];
      std::shared_ptr<ScoringServer> server = fleet_->shard_ref(s);
      ServerStats::View sv = server->stats();
      size_t queued = server->queue_depth();
      size_t inflight = server->inflight_batches();
      bool progressed = sv.completed != state.last_completed;
      // Stalled = pending work with no dispatcher progress since the
      // last probe. An idle shard is healthy by definition.
      bool pending = queued > 0 || inflight > 0;
      bool stalled = pending && !progressed;
      state.last_completed = sv.completed;

      bool over_depth = options_.degraded_queue_depth > 0 &&
                        queued > options_.degraded_queue_depth;
      bool over_latency =
          options_.degraded_ewma_latency_ms > 0.0 &&
          sv.ewma_batch_latency_us / 1000.0 > options_.degraded_ewma_latency_ms;
      ShardHealthFsm::Verdict verdict = state.fsm.Observe(
          stalled, over_depth || over_latency, fleet_->ShardEjected(s),
          limits);
      if (verdict.readmit) {
        if (fleet_->ReadmitShard(s).ok()) ++readmissions_;
      }
      if (verdict.eject) {
        // EjectShard refuses the last routable shard — there is nowhere
        // to send the traffic; the shard stays kDead but routed, and a
        // later stalled streak asks again.
        if (fleet_->EjectShard(s).ok()) {
          ++ejections_;
          if (options_.auto_restart) to_restart.push_back(s);
        }
      }
    }
    ++probes_;
  }
  // Restarts run outside the lock: RestartShard blocks until the shard's
  // wedged batch releases, and stats()/Stop() must stay responsive while
  // it does.
  for (size_t s : to_restart) {
    if (fleet_->RestartShard(s).ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++restarts_;
      shards_[s].fsm.NoteRestarted();
    }
  }
}

HealthMonitor::View HealthMonitor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  View view;
  view.probes = probes_;
  view.ejections = ejections_;
  view.restarts = restarts_;
  view.readmissions = readmissions_;
  view.shard_health.reserve(shards_.size());
  for (const ShardState& s : shards_) {
    view.shard_health.push_back(s.fsm.health());
  }
  return view;
}

}  // namespace fairdrift
