// Set-up: the MEPS-like data, the serving snapshot, the request rows with
// their direct-scoring references, and the target (one in-process
// ScoringServer with the audit on, or two loopback ShardDaemons behind
// two RemoteFleet routers).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <random>

#include "core/deployment.h"
#include "datagen/realworld.h"
#include "kde/kde_cache.h"
#include "perfbench.h"

namespace perfbench {

namespace fd = fairdrift;

namespace {

// The paper-size MEPS simulator draw is 15,675 rows.
size_t MepsSize() {
  return fd::GetRealDatasetSpec(fd::RealDatasetId::kMeps).full_size;
}

std::vector<size_t> SeededPermutation(size_t n, uint64_t seed) {
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::mt19937_64 rng(seed);
  std::shuffle(idx.begin(), idx.end(), rng);
  return idx;
}

/// Request rows in schema layout (one double per field, categorical
/// fields carry their code) for the tuples at `indices`.
void FillRows(const Dataset& data, const std::vector<size_t>& indices,
              RowPool* pool) {
  pool->width = data.num_features();
  pool->count = indices.size();
  pool->rows.resize(pool->count * pool->width);
  pool->groups.resize(pool->count);
  pool->labels.resize(pool->count);
  for (size_t i = 0; i < indices.size(); ++i) {
    for (size_t f = 0; f < pool->width; ++f) {
      pool->rows[i * pool->width + f] = data.column(f).ValueAsDouble(indices[i]);
    }
    pool->groups[i] = data.groups()[indices[i]];
    pool->labels[i] = data.labels()[indices[i]];
  }
}

bool BuildTarget(Fixture* fx, std::string* error) {
  const size_t width = fx->snapshot->num_features();
  if (fx->options.workload == Workload::kServeRemote) {
    std::vector<std::string> addresses;
    for (int i = 0; i < 2; ++i) {
      fd::net::ShardDaemonOptions daemon_options;
      // Deep queues: an overloaded ladder step shows as a growing
      // backlog, never as shed rows.
      daemon_options.server.admission.max_queue_depth = size_t{1} << 20;
      auto daemon = fd::net::ShardDaemon::Start(fx->snapshot, daemon_options);
      if (!daemon.ok()) {
        *error = "daemon start: " + daemon.status().ToString();
        return false;
      }
      addresses.push_back("127.0.0.1:" +
                          std::to_string(daemon.value()->port()));
      fx->daemons.push_back(std::move(daemon).value());
    }
    // Two routers with two connections each: four connections, one per
    // sender thread and shard.
    for (int i = 0; i < 2; ++i) {
      fd::net::RemoteFleetOptions fleet_options;
      fleet_options.routing = fd::FleetRoutingPolicy::kHashRow;
      fleet_options.start_prober = false;
      auto fleet = fd::net::RemoteFleet::Connect(addresses, fleet_options);
      if (!fleet.ok()) {
        *error = "fleet connect: " + fleet.status().ToString();
        return false;
      }
      fx->fleets.push_back(std::move(fleet).value());
    }
    // Warm-up: every connection carries frames before timing starts.
    std::vector<double> frame(fx->traffic.rows.begin(),
                              fx->traffic.rows.begin() + 64 * width);
    for (int k = 0; k < 40; ++k) {
      for (auto& fleet : fx->fleets) {
        auto got = fleet->ScoreBatch(frame, width);
        fx->remote_rows_sent.fetch_add(64);
        if (!got.ok()) {
          *error = "warm-up frame: " + got.status().ToString();
          return false;
        }
      }
    }
    return true;
  }

  fd::AuditOptions audit;
  audit.enabled = true;
  audit.row_logging = fd::AuditRowLogging::kNone;
  auto auditor = fd::FleetAuditor::Create(audit, 1, width);
  if (!auditor.ok()) {
    *error = "auditor: " + auditor.status().ToString();
    return false;
  }
  fx->auditor = std::move(auditor).value();
  fd::ServerOptions server_options;
  server_options.audit = fx->auditor->shard(0);
  server_options.admission.max_queue_depth = size_t{1} << 20;
  auto server = fd::ScoringServer::Create(fx->snapshot, server_options);
  if (!server.ok()) {
    *error = "server: " + server.status().ToString();
    return false;
  }
  fx->server = std::move(server).value();
  // Warm-up: eight bursts of 256 rows through Submit/Wait.
  for (size_t burst = 0; burst < 8; ++burst) {
    std::vector<fd::ScoreTicket> tickets;
    for (size_t i = 0; i < 256; ++i) {
      const double* src = fx->traffic.row((burst * 256 + i) % fx->traffic.count);
      auto ticket =
          fx->server->Submit(std::vector<double>(src, src + width));
      fx->inproc_rows_sent.fetch_add(1);
      if (!ticket.ok()) {
        *error = "warm-up request: " + ticket.status().ToString();
        return false;
      }
      tickets.push_back(std::move(ticket).value());
    }
    for (const fd::ScoreTicket& ticket : tickets) {
      auto got = ticket.Wait();
      if (!got.ok()) {
        *error = "warm-up request: " + got.status().ToString();
        return false;
      }
    }
  }
  return true;
}

}  // namespace

RatePlan PlanFor(Workload workload) {
  // Rates measured on a 4-thread AVX2 host. The in-process server's knee
  // sits near 11k rows/s: the bounded density monitor dominates the
  // per-row cost. The remote knee sits near 12k rows/s; a frame takes
  // ~11 ms, so its ladder steps run longer to collect enough frames. Both
  // high rates sit at about half the knee: closer to it, p50 and p99
  // swung by a third between runs. The p99 limits are loose, some ten
  // times the p99 at the high rate: past the knee the backlog and latency
  // grow without bound, a sharper edge than a p99 that one stall of the
  // host can push over a tight limit.
  RatePlan plan;
  if (workload == Workload::kServeRemote) {
    plan.rows_per_request = 64;
    plan.low_rps = 4096;    // 64 frames/s
    plan.high_rps = 6144;   // 96 frames/s
    plan.p99_limit_us = 100000;
    plan.ladder_share = 0.05;
    for (double r = 8192; r <= 64000; r *= 1.15) plan.ladder_rps.push_back(r);
    return plan;
  }
  plan.low_rps = 2000;
  plan.high_rps = 6000;
  plan.p99_limit_us = 20000;
  for (double r = 4000; r <= 64000; r *= 1.1) plan.ladder_rps.push_back(r);
  return plan;
}

fd::TrainSpec RolloutSpec(fd::Method method) {
  fd::TrainSpec spec = fd::ServingSpec(method);
  spec.learner = fd::LearnerKind::kLogisticRegression;
  spec.monitor.mode = fd::MonitorMode::kBounded;
  return spec;
}

Dataset FreshTrainingSet(const Dataset& pool, uint64_t seed) {
  std::vector<size_t> perm = SeededPermutation(pool.size(), seed);
  perm.resize(std::min(MepsSize(), perm.size()));
  std::sort(perm.begin(), perm.end());
  return pool.Subset(perm);
}

bool SameScore(const ScoreResult& a, const ScoreResult& b) {
  auto same_bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  return same_bits(a.probability, b.probability) && a.label == b.label &&
         a.routed_group == b.routed_group && same_bits(a.margin, b.margin) &&
         same_bits(a.log_density, b.log_density) &&
         a.density_outlier == b.density_outlier &&
         a.density_checked == b.density_checked && a.group == b.group;
}

bool SetUp(Fixture* fx, int repeats, std::string* error) {
  fx->plan = PlanFor(fx->options.workload);
  for (int rep = 0; rep < repeats; ++rep) {
    TearDown(fx);
    // Each set-up starts cold: a cached KDE fit would make every repeat
    // after the first a lookup.
    fd::GlobalKdeCache().Clear();
    fx->remote_rows_sent.store(0);
    fx->inproc_rows_sent.store(0);
    uint64_t start = NowNs();

    fd::RealDatasetSpec spec = fd::GetRealDatasetSpec(fd::RealDatasetId::kMeps);
    spec.full_size = 2 * MepsSize();  // training draw + held-out draw
    auto pool = fd::MakeRealWorldLike(spec, 1.0);
    if (!pool.ok()) {
      *error = "dataset: " + pool.status().ToString();
      return false;
    }
    fx->pool = std::move(pool).value();
    // The training/held-out split is fixed, so every seed serves the same
    // snapshot; the seed picks the order of the request rows and the
    // arrival schedules.
    std::vector<size_t> perm = SeededPermutation(fx->pool.size(), 0);
    std::vector<size_t> train_idx(perm.begin(), perm.begin() + MepsSize());
    std::vector<size_t> heldout_idx(perm.begin() + MepsSize(), perm.end());
    std::sort(train_idx.begin(), train_idx.end());
    std::shuffle(heldout_idx.begin(), heldout_idx.end(),
                 std::mt19937_64(fx->options.seed));
    Dataset train = fx->pool.Subset(train_idx);

    auto snapshot = fd::BuildSnapshot(train, RolloutSpec(fd::Method::kDiffair));
    if (!snapshot.ok()) {
      *error = "snapshot: " + snapshot.status().ToString();
      return false;
    }
    fx->snapshot = snapshot.value();

    fx->traffic = RowPool{};
    if (fx->options.workload == Workload::kServeRemote) {
      // Drifted traffic: the same simulator (same structure seed, so the
      // same schema) with a larger minority share and stronger group
      // drift.
      fd::RealDatasetSpec drifted =
          fd::GetRealDatasetSpec(fd::RealDatasetId::kMeps);
      drifted.minority_fraction = 0.9;
      drifted.group_drift = 4.0;
      auto data = fd::MakeRealWorldLike(drifted, 1.0);
      if (!data.ok()) {
        *error = "drifted dataset: " + data.status().ToString();
        return false;
      }
      FillRows(data.value(),
               SeededPermutation(data.value().size(), fx->options.seed + 1),
               &fx->traffic);
    } else {
      FillRows(fx->pool, heldout_idx, &fx->traffic);
    }
    if (!BuildTarget(fx, error)) return false;
    fx->setup_seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }

  // Direct-scoring references (outside the set-up timing: this is the
  // benchmark's own checking work).
  fd::Matrix rows(fx->traffic.count, fx->traffic.width);
  std::copy(fx->traffic.rows.begin(), fx->traffic.rows.end(), rows.RowPtr(0));
  auto reference = fx->snapshot->ScoreBatch(rows);
  if (!reference.ok()) {
    *error = "reference scoring: " + reference.status().ToString();
    return false;
  }
  fx->traffic.reference = std::move(reference).value();
  for (auto& daemon : fx->daemons) {
    fx->daemon_connections_after_setup +=
        daemon->counters().connections_accepted;
  }
  return true;
}

void TearDown(Fixture* fx) {
  for (auto& fleet : fx->fleets) fleet->Stop();
  fx->fleets.clear();
  for (auto& daemon : fx->daemons) daemon->Stop();
  fx->daemons.clear();
  if (fx->server) fx->server->Stop();
  fx->server.reset();
  fx->auditor.reset();
}

}  // namespace perfbench
