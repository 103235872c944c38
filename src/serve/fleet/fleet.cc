#include "serve/fleet/fleet.h"

#include <algorithm>
#include <utility>

#include "serve/server_stats.h"
#include "util/binary_io.h"
#include "util/fault.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace fairdrift {

namespace {

// SplitMix64 finalizer: the rendezvous weights need a full avalanche of
// (row hash, shard id) — a raw hash xored with a shard id correlates.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* FleetRoutingPolicyName(FleetRoutingPolicy policy) {
  switch (policy) {
    case FleetRoutingPolicy::kRoundRobin:
      return "round-robin";
    case FleetRoutingPolicy::kLeastQueueDepth:
      return "least-queue";
    case FleetRoutingPolicy::kHashRow:
      return "hash-row";
  }
  return "?";
}

Result<FleetRoutingPolicy> ParseFleetRoutingPolicy(const std::string& name) {
  if (name == "rr" || name == "round-robin") {
    return FleetRoutingPolicy::kRoundRobin;
  }
  if (name == "least" || name == "least-queue") {
    return FleetRoutingPolicy::kLeastQueueDepth;
  }
  if (name == "hash" || name == "hash-row") {
    return FleetRoutingPolicy::kHashRow;
  }
  return Status::InvalidArgument("unknown routing policy '" + name +
                                 "' (want rr|least|hash)");
}

ShardRouter::ShardRouter(FleetRoutingPolicy policy, size_t num_shards)
    : policy_(policy), num_shards_(num_shards) {}

size_t ShardRouter::Pick(const double* row, size_t width,
                         const ShardDirectory& fleet) {
  size_t nominal = 0;
  switch (policy_) {
    case FleetRoutingPolicy::kRoundRobin:
      nominal = static_cast<size_t>(
                    cursor_.fetch_add(1, std::memory_order_relaxed)) %
                num_shards_;
      break;
    case FleetRoutingPolicy::kLeastQueueDepth: {
      // Racy scan by design: the depths move while we look, but steering
      // toward a stale minimum still balances. Ties break toward the
      // lowest shard id so the scan stays deterministic given the loads.
      bool found = false;
      size_t best_load = 0;
      for (size_t s = 0; s < num_shards_; ++s) {
        if (!fleet.ShardAvailable(s)) continue;
        size_t load = fleet.ShardLoad(s);
        if (!found || load < best_load) {
          found = true;
          best_load = load;
          nominal = s;
        }
      }
      break;
    }
    case FleetRoutingPolicy::kHashRow: {
      // The row's raw IEEE-754 bytes hash the same in every process, so
      // a replayed request trace shards identically run after run.
      uint64_t row_hash = Xxh64Hash(reinterpret_cast<const char*>(row),
                                    width * sizeof(double));
      nominal = static_cast<size_t>(row_hash) % num_shards_;
      if (fleet.ShardAvailable(nominal)) return nominal;
      // Home shard unavailable: rendezvous (highest-random-weight) hash
      // over the available shards. Deterministic in (row, available
      // set): a row's keys always fail over to the same survivor, and
      // snap back to the home shard on readmission — no modulo
      // reshuffle of the whole keyspace.
      bool found = false;
      uint64_t best_weight = 0;
      size_t best = nominal;
      for (size_t s = 0; s < num_shards_; ++s) {
        if (!fleet.ShardAvailable(s)) continue;
        uint64_t weight = Mix64(row_hash ^ (0x9e3779b97f4a7c15ULL *
                                            static_cast<uint64_t>(s + 1)));
        if (!found || weight > best_weight ||
            (weight == best_weight && s < best)) {
          found = true;
          best_weight = weight;
          best = s;
        }
      }
      // No shard available at all: keep the home pick — its queue stays
      // open, requests wait out the swap/restart.
      return best;
    }
  }
  // Walk off an unavailable shard (rolling update draining it, or the
  // health monitor ejected it). The ejection rule never ejects the last
  // routable shard, so every shard is unavailable only while a rolling
  // update drains the last one (always, on a 1-shard fleet) — then keep
  // the nominal pick: its queue stays open, requests wait out the swap.
  for (size_t step = 0; step < num_shards_; ++step) {
    size_t s = (nominal + step) % num_shards_;
    if (fleet.ShardAvailable(s)) return s;
  }
  return nominal;
}

Result<std::unique_ptr<ScoringFleet>> ScoringFleet::Create(
    std::shared_ptr<const ModelSnapshot> snapshot,
    const FleetOptions& options) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("ScoringFleet: null snapshot");
  }
  if (options.num_shards == 0) {
    return Status::InvalidArgument("ScoringFleet: zero shards");
  }
  std::unique_ptr<ScoringFleet> fleet(new ScoringFleet(options));
  if (options.audit.enabled) {
    Result<std::unique_ptr<FleetAuditor>> auditor = FleetAuditor::Create(
        options.audit, options.num_shards, snapshot->num_features());
    if (!auditor.ok()) return auditor.status();
    fleet->auditor_ = std::move(auditor).value();
  }
  for (size_t s = 0; s < options.num_shards; ++s) {
    ServerOptions shard_options = options.shard;
    if (options.workers_per_shard > 0) {
      fleet->shard_pools_.push_back(
          std::make_unique<ThreadPool>(options.workers_per_shard));
      shard_options.pool = fleet->shard_pools_.back().get();
    }
    // Tag each shard's fault sites with its index so a rule can target
    // one shard of the fleet (e.g. wedge shard 1, stall shard 2's drain).
    shard_options.fault_tag = static_cast<uint64_t>(s);
    // The fleet's audit tier supersedes any caller-supplied per-shard
    // auditor (one FleetAuditor must own every shard's windows).
    if (fleet->auditor_ != nullptr) {
      shard_options.audit = fleet->auditor_->shard(s);
    }
    Result<std::unique_ptr<ScoringServer>> server =
        ScoringServer::Create(snapshot, shard_options);
    if (!server.ok()) return server.status();
    fleet->servers_.push_back(std::move(server).value());
  }
  return fleet;
}

ScoringFleet::ScoringFleet(const FleetOptions& options)
    : options_(options),
      shards_(options.num_shards),
      router_(options.routing, options.num_shards) {}

ScoringFleet::~ScoringFleet() { Stop(); }

void ScoringFleet::Stop() {
  if (stopped_.exchange(true)) return;
  // Shards stop independently (each drains its own queue); the private
  // pools outlive the servers that score on them, then fall with the
  // fleet.
  for (size_t s = 0; s < servers_.size(); ++s) shard_ref(s)->Stop();
}

size_t ScoringFleet::ShardLoad(size_t s) const {
  std::shared_ptr<ScoringServer> server = shard_ref(s);
  return server->queue_depth() +
         server->inflight_batches() *
             server->options().batching.max_batch_size;
}

Result<ScoreTicket> ScoringFleet::Submit(
    std::vector<double> row, std::chrono::nanoseconds deadline_after) {
  return Submit(std::move(row), RequestAuditInfo{}, deadline_after);
}

Result<ScoreTicket> ScoringFleet::Submit(
    std::vector<double> row, const RequestAuditInfo& audit,
    std::chrono::nanoseconds deadline_after) {
  size_t shard = router_.Pick(row.data(), row.size(), *this);
  return shard_ref(shard)->Submit(std::move(row), audit, deadline_after);
}

Result<ScoreResult> ScoringFleet::ScoreSync(
    std::vector<double> row, std::chrono::nanoseconds deadline_after) {
  Result<ScoreTicket> ticket = Submit(std::move(row), deadline_after);
  if (!ticket.ok()) return ticket.status();
  return ticket.value().Wait();
}

Status ScoringFleet::UpdateSnapshot(
    std::shared_ptr<const ModelSnapshot> snapshot) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("UpdateSnapshot: null snapshot");
  }
  std::lock_guard<std::mutex> lock(rollouts_.mutex());
  for (size_t s = 0; s < servers_.size(); ++s) {
    FAIRDRIFT_RETURN_IF_ERROR(shard_ref(s)->UpdateSnapshot(snapshot));
  }
  return Status::OK();
}

Result<RollingUpdateReport> ScoringFleet::RollingUpdate(
    std::shared_ptr<const ModelSnapshot> snapshot,
    const RollingUpdateOptions& options) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("RollingUpdate: null snapshot");
  }
  // Each shard's pre-swap snapshot, so a revert restores exactly what
  // that shard was serving.
  std::vector<std::shared_ptr<const ModelSnapshot>> prior(servers_.size());
  // On a 1-shard fleet the router keeps feeding the draining shard, so
  // the barrier only waits out its in-flight batches (per-batch isolation
  // still gives every request one consistent version).
  const bool require_empty_queue = servers_.size() > 1;
  RolloutTarget target;
  target.swap = [&](size_t s, uint64_t* version) {
    std::shared_ptr<ScoringServer> server = shard_ref(s);
    prior[s] = server->CurrentSnapshot();
    FAIRDRIFT_RETURN_IF_ERROR(
        server->Quiesce(options.drain_timeout, require_empty_queue));
    // Fault site: the swap itself fails (e.g. the shard rejects the
    // snapshot) — retried like a drain stall.
    if (FAULT_POINT_ARG("fleet.swap", s)) {
      return Status::Unavailable(
          "RollingUpdate: snapshot swap failed (injected fault: "
          "fleet.swap)");
    }
    *version = snapshot->version();
    return server->UpdateSnapshot(snapshot);
  };
  target.revert = [&](size_t s) {
    // A revert barrier that stalls again is swapped through anyway:
    // in-flight batches finish on the snapshot they grabbed, and the
    // fleet must converge to zero skew.
    std::shared_ptr<ScoringServer> server = shard_ref(s);
    (void)server->Quiesce(options.drain_timeout, require_empty_queue);
    return server->UpdateSnapshot(prior[s]);
  };
  return rollouts_.Run(target, options);
}

Status ScoringFleet::RestartShard(size_t s) {
  if (s >= servers_.size()) {
    return Status::OutOfRange(StrFormat("RestartShard: shard %zu of %zu", s,
                                        servers_.size()));
  }
  std::lock_guard<std::mutex> lock(restart_mu_);
  std::shared_ptr<ScoringServer> old = shard_ref(s);
  // The replacement inherits the old server's resolved options (pool,
  // fault tag) and whatever snapshot it was serving.
  Result<std::unique_ptr<ScoringServer>> fresh =
      ScoringServer::Create(old->CurrentSnapshot(), old->options());
  if (!fresh.ok()) return fresh.status();
  std::shared_ptr<ScoringServer> replacement = std::move(fresh).value();
  std::atomic_store(&servers_[s], replacement);
  // Stop the old server AFTER the swap: new traffic already routes to
  // the replacement while the old queue drains through the normal
  // scoring path (every admitted ticket completes). Blocks on in-flight
  // batches — a still-wedged batch holds the restart here.
  old->Stop();
  shards_.NoteRestart();
  return Status::OK();
}

double OutlierRate(const ServerStats::View& view) {
  return view.density_checked == 0
             ? 0.0
             : static_cast<double>(view.density_outliers) /
                   static_cast<double>(view.density_checked);
}

void FleetStatsView::DeriveFleetSignals(const ShardAvailability& shards) {
  outlier_rate = OutlierRate(*this);
  if (!shard_versions.empty()) {
    auto [lo, hi] =
        std::minmax_element(shard_versions.begin(), shard_versions.end());
    min_snapshot_version = *lo;
    max_snapshot_version = *hi;
  }
  static_cast<ShardAvailability::Counters&>(*this) = shards.counters();
  shard_ejected.resize(shards.size());
  for (size_t s = 0; s < shards.size(); ++s) {
    shard_ejected[s] = shards.ejected(s) ? 1 : 0;
  }
}

FleetStatsView ScoringFleet::stats() const {
  FleetStatsView view;
  view.num_shards = servers_.size();
  for (size_t i = 0; i < servers_.size(); ++i) {
    std::shared_ptr<ScoringServer> server = shard_ref(i);
    ServerStats::View s = server->stats();
    view.MergeFrom(s);
    view.queue_depths.push_back(server->queue_depth());
    view.shard_outlier_rates.push_back(OutlierRate(s));
    view.shard_completed.push_back(s.completed);
    view.shard_versions.push_back(server->CurrentSnapshot()->version());
  }
  view.DeriveFleetSignals(shards_);
  if (auditor_ != nullptr) view.audit = auditor_->view();
  return view;
}

}  // namespace fairdrift
