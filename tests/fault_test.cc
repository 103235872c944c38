// Tests for deterministic fault injection (util/fault.h) and the fleet's
// fault-tolerance machinery built on it.
//
// Load-bearing contracts:
//   - The injector is deterministic: the same (seed, site, hit index)
//     always fires the same hits, so every failing fault run replays.
//   - A drain stall during RollingUpdate is retried with backoff; an
//     exhausted shard rolls the whole update back — zero dropped
//     in-flight requests and zero version skew at exit, both ways.
//   - A wedged shard is detected by the HealthMonitor heartbeat,
//     ejected (hash-routed keys rendezvous-reassign to survivors with
//     bitwise-identical scores), restarted, and readmitted.
//   - A corrupt snapshot identity is quarantined after N failed loads
//     and never retried, while a subsequent good save still hot-reloads.
//   - A snapshot with a corrupt optional monitor tail is rejected under
//     kStrict but serves degraded under kAllowPartial, scoring bitwise
//     identically to the intact model with monitoring off.
//
// The FaultMatrix.* tests read FAULT_SEED from the environment (CMake
// sweeps several seeds) and assert seed-independent invariants under
// probabilistic fault rules.

#include "util/fault.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/deployment.h"
#include "serve/audit/audit_log.h"
#include "serve/fleet/fleet.h"
#include "serve/fleet/health.h"
#include "serve/fleet/watcher.h"
#include "serve/net/remote_fleet.h"
#include "serve/net/shard_daemon.h"
#include "serve/net/wire.h"
#include "serve/server.h"
#include "serve/server_stats.h"
#include "serve/snapshot_io.h"
#include "serve/trace/trace_log.h"
#include "util/rng.h"
#include "test_tmp.h"

namespace fairdrift {
namespace {

// Two-group dataset with numeric attributes and one categorical, linear
// class signal (the fleet_test shape).
Dataset MakeTrainingData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x0(n);
  std::vector<double> x1(n);
  std::vector<double> x2(n);
  std::vector<int> cat(n);
  std::vector<int> labels(n);
  std::vector<int> groups(n);
  for (size_t i = 0; i < n; ++i) {
    int g = rng.Bernoulli(0.35) ? 1 : 0;
    double shift = g == 1 ? 0.7 : -0.7;
    x0[i] = rng.Gaussian(shift, 1.0);
    x1[i] = rng.Gaussian(-shift, 1.2);
    x2[i] = rng.Gaussian(0.0, 0.8);
    cat[i] = static_cast<int>(rng.UniformInt(0, 2));
    labels[i] = x0[i] - 0.5 * x1[i] + rng.Gaussian(0.0, 0.6) > 0.0 ? 1 : 0;
    groups[i] = g;
  }
  Dataset data;
  EXPECT_TRUE(data.AddNumericColumn("x0", std::move(x0)).ok());
  EXPECT_TRUE(data.AddNumericColumn("x1", std::move(x1)).ok());
  EXPECT_TRUE(data.AddNumericColumn("x2", std::move(x2)).ok());
  EXPECT_TRUE(data.AddCategoricalColumn("cat", std::move(cat), 3).ok());
  EXPECT_TRUE(data.SetLabels(std::move(labels), 2).ok());
  EXPECT_TRUE(data.SetGroups(std::move(groups)).ok());
  return data;
}

std::shared_ptr<const ModelSnapshot> MakeSnapshot(
    uint64_t seed, Method method = Method::kNoIntervention,
    bool with_density = false) {
  Dataset train = MakeTrainingData(400, seed);
  TrainSpec spec = ServingSpec(method);
  spec.include_density = with_density;
  Result<std::shared_ptr<const ModelSnapshot>> snapshot =
      BuildSnapshot(train, spec);
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  return snapshot.ok() ? snapshot.value() : nullptr;
}

std::vector<std::vector<double>> MakeRequests(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows(n, std::vector<double>(4));
  for (auto& row : rows) {
    row[0] = rng.Gaussian();
    row[1] = rng.Gaussian();
    row[2] = rng.Gaussian();
    row[3] = static_cast<double>(rng.UniformInt(0, 2));
  }
  return rows;
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Arms the global injector for one test and guarantees it is disarmed
/// (rules cleared, wedged threads released) however the test exits.
class FaultGuard {
 public:
  explicit FaultGuard(uint64_t seed) { FaultInjector::Global().Arm(seed); }
  ~FaultGuard() { FaultInjector::Global().Disarm(); }
  FaultGuard(const FaultGuard&) = delete;
  FaultGuard& operator=(const FaultGuard&) = delete;
};

bool WaitUntil(const std::function<bool()>& condition,
               std::chrono::seconds timeout = std::chrono::seconds(20)) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return condition();
}

#ifndef FAIRDRIFT_NO_FAULT_INJECTION

// ---------------------------------------------------------------- injector

TEST(FaultInjectorTest, DisarmedSitesNeverFire) {
  FaultInjector::Global().Disarm();
  ASSERT_FALSE(FaultInjector::Global().armed());
  EXPECT_FALSE(FAULT_POINT("nonexistent.site"));
  EXPECT_FALSE(FAULT_POINT_ARG("nonexistent.site", 7));
}

TEST(FaultInjectorTest, SameSeedReplaysTheSameFires) {
  FaultInjector& injector = FaultInjector::Global();
  FaultRule rule;
  rule.probability = 0.5;
  auto pattern = [&](uint64_t seed) {
    injector.Arm(seed);
    injector.SetRule("det.site", rule);
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) fires.push_back(injector.Hit("det.site"));
    injector.Disarm();
    return fires;
  };
  std::vector<bool> first = pattern(7);
  std::vector<bool> replay = pattern(7);
  std::vector<bool> other = pattern(8);
  EXPECT_EQ(first, replay) << "same seed must replay identically";
  EXPECT_NE(first, other) << "different seeds must decorrelate";
  size_t fired = 0;
  for (bool f : first) fired += f ? 1 : 0;
  // p=0.5 over 64 hits: the mixed coin should not degenerate.
  EXPECT_GT(fired, 8u);
  EXPECT_LT(fired, 56u);
}

TEST(FaultInjectorTest, SkipAndMaxFiresWindowTheFailures) {
  FaultInjector& injector = FaultInjector::Global();
  injector.Arm(11);
  FaultRule rule;
  rule.skip = 2;
  rule.max_fires = 2;
  injector.SetRule("window.site", rule);
  std::vector<bool> fires;
  for (int i = 0; i < 6; ++i) fires.push_back(injector.Hit("window.site"));
  EXPECT_EQ(fires, (std::vector<bool>{false, false, true, true, false,
                                      false}));
  EXPECT_EQ(injector.hits("window.site"), 6u);
  EXPECT_EQ(injector.fires("window.site"), 2u);
  injector.Disarm();
}

TEST(FaultInjectorTest, ArgFilterTargetsOneTag) {
  FaultInjector& injector = FaultInjector::Global();
  injector.Arm(3);
  FaultRule rule;
  rule.arg = 2;
  injector.SetRule("tag.site", rule);
  EXPECT_FALSE(injector.Hit("tag.site", 0));
  EXPECT_FALSE(injector.Hit("tag.site", 1));
  EXPECT_TRUE(injector.Hit("tag.site", 2));
  EXPECT_EQ(injector.hits("tag.site"), 3u);
  EXPECT_EQ(injector.fires("tag.site"), 1u);
  injector.Disarm();
}

TEST(FaultInjectorTest, ArmFromEnvParsesSpecAndRejectsMalformed) {
  FaultInjector& injector = FaultInjector::Global();
  const char* old_seed = std::getenv("FAULT_SEED");
  std::string saved_seed = old_seed == nullptr ? "" : old_seed;
  const char* old_sites = std::getenv("FAULT_SITES");
  std::string saved_sites = old_sites == nullptr ? "" : old_sites;

  ::setenv("FAULT_SEED", "123", 1);
  ::setenv("FAULT_SITES",
           "a.site:action=fail,fires=2;b.site:action=delay,delay_ms=1", 1);
  ASSERT_TRUE(injector.ArmFromEnv().ok());
  EXPECT_TRUE(injector.armed());
  EXPECT_EQ(injector.fault_seed(), 123u);
  EXPECT_TRUE(injector.Hit("a.site"));
  EXPECT_TRUE(injector.Hit("a.site"));
  EXPECT_FALSE(injector.Hit("a.site")) << "fires=2 must cap the failures";
  injector.Disarm();

  ::setenv("FAULT_SITES", "bad.site:action=bogus", 1);
  EXPECT_FALSE(injector.ArmFromEnv().ok());
  EXPECT_FALSE(injector.armed());
  ::unsetenv("FAULT_SITES");
  ::setenv("FAULT_SEED", "notanumber", 1);
  EXPECT_FALSE(injector.ArmFromEnv().ok());

  ::unsetenv("FAULT_SEED");
  EXPECT_TRUE(injector.ArmFromEnv().ok()) << "no FAULT_SEED is a no-op";
  EXPECT_FALSE(injector.armed());

  if (!saved_seed.empty()) ::setenv("FAULT_SEED", saved_seed.c_str(), 1);
  if (!saved_sites.empty()) ::setenv("FAULT_SITES", saved_sites.c_str(), 1);
  injector.Disarm();
}

// ----------------------------------------------------------------- rollout

TEST(FaultRolloutTest, DrainStallRetriesThenCommits) {
  std::shared_ptr<const ModelSnapshot> before = MakeSnapshot(33);
  std::shared_ptr<const ModelSnapshot> after = MakeSnapshot(34);
  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);
  FleetOptions options;
  options.num_shards = 3;
  options.routing = FleetRoutingPolicy::kRoundRobin;
  Result<std::unique_ptr<ScoringFleet>> fleet =
      ScoringFleet::Create(before, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  FaultGuard guard(5);
  FaultRule stall;
  stall.arg = 1;       // only shard 1's drain barrier
  stall.max_fires = 1;  // transient: fails once, then heals
  FaultInjector::Global().SetRule("fleet.drain", stall);

  RollingUpdateOptions rolling;
  rolling.initial_backoff = std::chrono::milliseconds(1);
  rolling.backoff_seed = 7;
  Result<RollingUpdateReport> report =
      fleet.value()->RollingUpdate(after, rolling);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const RollingUpdateReport& r = report.value();
  EXPECT_EQ(r.state, RolloutState::kCommitted);
  EXPECT_EQ(r.shards_updated, 3u);
  EXPECT_EQ(r.total_attempts, 4u);
  ASSERT_EQ(r.shards.size(), 3u);
  EXPECT_EQ(r.shards[0].attempts, 1u);
  EXPECT_EQ(r.shards[1].attempts, 2u) << "the stalled shard must retry";
  EXPECT_FALSE(r.shards[1].last_error.empty());
  EXPECT_EQ(r.shards[2].attempts, 1u);
  EXPECT_TRUE(r.failure.empty());

  FleetStatsView stats = fleet.value()->stats();
  EXPECT_EQ(stats.min_snapshot_version, after->version());
  EXPECT_EQ(stats.max_snapshot_version, after->version());
  EXPECT_EQ(stats.rollbacks, 0u);
}

TEST(FaultRolloutTest, ExhaustedRetriesRollBackWithZeroDropsAndZeroSkew) {
  std::shared_ptr<const ModelSnapshot> before = MakeSnapshot(35);
  std::shared_ptr<const ModelSnapshot> after = MakeSnapshot(36);
  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);
  const size_t kClients = 2;
  const size_t kPerClient = 300;
  FleetOptions options;
  options.num_shards = 3;
  options.routing = FleetRoutingPolicy::kRoundRobin;
  options.shard.admission.max_queue_depth = kClients * kPerClient + 16;
  Result<std::unique_ptr<ScoringFleet>> fleet =
      ScoringFleet::Create(before, options);
  ASSERT_TRUE(fleet.ok());

  FaultGuard guard(6);
  FaultRule stall;
  stall.arg = 2;  // shard 2's drain barrier fails every attempt
  FaultInjector::Global().SetRule("fleet.drain", stall);

  // Live in-flight load throughout the (failing) rollout.
  std::vector<std::vector<ScoreTicket>> tickets(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::vector<double>> rows =
          MakeRequests(kPerClient, 60 + c);
      for (auto& row : rows) {
        Result<ScoreTicket> t = fleet.value()->Submit(std::move(row));
        ASSERT_TRUE(t.ok()) << t.status().ToString();
        tickets[c].push_back(std::move(t).value());
      }
    });
  }
  RollingUpdateOptions rolling;
  rolling.drain_timeout = std::chrono::seconds(30);
  rolling.max_attempts_per_shard = 2;
  rolling.initial_backoff = std::chrono::milliseconds(1);
  rolling.backoff_seed = 3;
  Result<RollingUpdateReport> report =
      fleet.value()->RollingUpdate(after, rolling);
  for (std::thread& t : clients) t.join();

  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const RollingUpdateReport& r = report.value();
  EXPECT_EQ(r.state, RolloutState::kRolledBack);
  EXPECT_FALSE(r.failure.empty());
  ASSERT_EQ(r.shards.size(), 3u);
  EXPECT_TRUE(r.shards[0].updated);
  EXPECT_TRUE(r.shards[0].rolled_back);
  EXPECT_TRUE(r.shards[1].updated);
  EXPECT_TRUE(r.shards[1].rolled_back);
  EXPECT_FALSE(r.shards[2].updated);
  EXPECT_EQ(r.shards[2].attempts, 2u);

  // Zero dropped in-flight requests: every ticket completes with a score,
  // each from exactly one of the two versions.
  size_t total = 0;
  for (auto& client_tickets : tickets) {
    for (ScoreTicket& t : client_tickets) {
      Result<ScoreResult> result = t.Wait();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(result.value().snapshot_version == before->version() ||
                  result.value().snapshot_version == after->version());
      ++total;
    }
  }
  EXPECT_EQ(total, kClients * kPerClient);

  // Zero version skew at exit: the rollback returned every shard to the
  // prior snapshot, and no shard is left routed around.
  FleetStatsView stats = fleet.value()->stats();
  EXPECT_EQ(stats.min_snapshot_version, before->version());
  EXPECT_EQ(stats.max_snapshot_version, before->version());
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_EQ(stats.rolling_updates, 1u);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_FALSE(fleet.value()->ShardDraining(s)) << "shard " << s;
    EXPECT_TRUE(fleet.value()->ShardAvailable(s)) << "shard " << s;
  }
}

// ------------------------------------------------------------------ health

TEST(FaultHealthTest, WedgedShardEjectedSurvivorsServeThenReadmitted) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(21);
  ASSERT_NE(snapshot, nullptr);
  FleetOptions options;
  options.num_shards = 3;
  options.routing = FleetRoutingPolicy::kHashRow;
  // Single-row batches score on their shard's own dispatch thread, so the
  // wedge below blocks shard 1's dispatcher and never the survivors.
  // Private single-worker pools keep any full batch off shared workers.
  options.workers_per_shard = 1;
  Result<std::unique_ptr<ScoringFleet>> fleet =
      ScoringFleet::Create(snapshot, options);
  ASSERT_TRUE(fleet.ok());

  // Healthy baseline: every row's bitwise score and home shard.
  std::vector<std::vector<double>> rows = MakeRequests(48, 31);
  std::vector<ScoreResult> baseline;
  for (const auto& row : rows) {
    Result<ScoreResult> r = fleet.value()->ScoreSync(row);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    baseline.push_back(r.value());
  }
  ShardRouter router(FleetRoutingPolicy::kHashRow, 3);
  std::vector<size_t> home(rows.size());
  std::vector<size_t> homed_at_1;
  for (size_t i = 0; i < rows.size(); ++i) {
    home[i] = router.Pick(rows[i].data(), rows[i].size(), *fleet.value());
    if (home[i] == 1) homed_at_1.push_back(i);
  }
  ASSERT_GE(homed_at_1.size(), 2u) << "test premise: shard 1 owns keys";

  HealthMonitor monitor;
  HealthMonitorOptions health;
  // The probe thread effectively never fires; the test steps the state
  // machine deterministically through ProbeOnce.
  health.probe_interval = std::chrono::hours(1);
  health.dead_after_stalled_probes = 2;
  health.readmit_after_healthy_probes = 2;
  health.auto_restart = true;
  ASSERT_TRUE(monitor.Start(fleet.value().get(), health).ok());

  // Wedge shard 1's next batch (on its dispatcher); park its keys'
  // requests behind the wedge.
  FaultGuard guard(13);
  FaultRule wedge;
  wedge.action = FaultAction::kWedge;
  wedge.arg = 1;
  wedge.max_fires = 1;
  FaultInjector::Global().SetRule("server.wedge", wedge);
  std::vector<ScoreTicket> parked;
  for (size_t i : homed_at_1) {
    Result<ScoreTicket> t = fleet.value()->Submit(rows[i]);
    ASSERT_TRUE(t.ok());
    parked.push_back(std::move(t).value());
  }
  ASSERT_TRUE(WaitUntil([] {
    return FaultInjector::Global().fires("server.wedge") == 1;
  })) << "shard 1's dispatcher never wedged";

  // Probe 1: pending work, no progress -> kDegraded.
  monitor.ProbeOnce();
  EXPECT_EQ(monitor.stats().shard_health[1], ShardHealth::kDegraded);

  // Probe 2 crosses the dead threshold: eject + auto-restart. The
  // restart blocks on the wedged batch, so it runs on its own thread
  // while the test drives traffic through the survivors.
  std::thread probe2([&monitor] { monitor.ProbeOnce(); });
  ASSERT_TRUE(WaitUntil([&] { return fleet.value()->ShardEjected(1); }))
      << "stalled shard was never ejected";

  // Survivors serve shard 1's keys bitwise identically while it is down.
  for (size_t i = 0; i < rows.size(); ++i) {
    if (home[i] == 1) {
      EXPECT_NE(router.Pick(rows[i].data(), rows[i].size(), *fleet.value()),
                1u)
          << "ejected shard still routed";
    }
    Result<ScoreResult> r = fleet.value()->ScoreSync(rows[i]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Bits(r.value().probability), Bits(baseline[i].probability))
        << "row " << i;
    EXPECT_EQ(r.value().label, baseline[i].label) << "row " << i;
    EXPECT_EQ(Bits(r.value().margin), Bits(baseline[i].margin))
        << "row " << i;
  }

  // Release the wedge: the restart completes, and every parked request
  // drains through the old server with a real (bitwise-identical) score.
  FaultInjector::Global().ClearRule("server.wedge");
  probe2.join();
  for (size_t k = 0; k < parked.size(); ++k) {
    Result<ScoreResult> r = parked[k].Wait();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Bits(r.value().probability),
              Bits(baseline[homed_at_1[k]].probability));
  }

  // Two healthy probes readmit the restarted shard; its keys snap back.
  monitor.ProbeOnce();
  monitor.ProbeOnce();
  EXPECT_FALSE(fleet.value()->ShardEjected(1));
  for (size_t i : homed_at_1) {
    EXPECT_EQ(router.Pick(rows[i].data(), rows[i].size(), *fleet.value()),
              1u)
        << "readmitted shard must own its keys again";
  }
  HealthMonitor::View view = monitor.stats();
  EXPECT_EQ(view.ejections, 1u);
  EXPECT_EQ(view.restarts, 1u);
  EXPECT_EQ(view.readmissions, 1u);
  EXPECT_EQ(view.shard_health[1], ShardHealth::kHealthy);
  FleetStatsView stats = fleet.value()->stats();
  EXPECT_EQ(stats.ejections, 1u);
  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_EQ(stats.readmissions, 1u);
  monitor.Stop();
}

// A single-row batch scores on the dispatch thread, so a wedge there
// stops the dispatcher itself. The heartbeat must still see it: the
// wedged batch holds its inflight slot although its row has left the
// queue, later rows queue behind it, and the shard reads as stalled.
TEST(FaultHealthTest, WedgeOnTheDispatcherStaysVisible) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(24);
  ASSERT_NE(snapshot, nullptr);
  FleetOptions options;
  options.num_shards = 1;
  options.workers_per_shard = 1;
  Result<std::unique_ptr<ScoringFleet>> fleet =
      ScoringFleet::Create(snapshot, options);
  ASSERT_TRUE(fleet.ok());
  std::vector<std::vector<double>> rows = MakeRequests(2, 25);
  Matrix m(rows.size(), rows[0].size());
  for (size_t i = 0; i < rows.size(); ++i) m.SetRow(i, rows[i]);
  Result<std::vector<ScoreResult>> reference = snapshot->ScoreBatch(m);
  ASSERT_TRUE(reference.ok());

  HealthMonitor monitor;
  HealthMonitorOptions health;
  health.probe_interval = std::chrono::hours(1);  // stepped by ProbeOnce
  health.auto_restart = false;
  ASSERT_TRUE(monitor.Start(fleet.value().get(), health).ok());

  FaultGuard guard(27);
  FaultRule wedge;
  wedge.action = FaultAction::kWedge;
  wedge.max_fires = 1;
  FaultInjector::Global().SetRule("server.wedge", wedge);
  Result<ScoreTicket> first = fleet.value()->Submit(rows[0]);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(WaitUntil([] {
    return FaultInjector::Global().fires("server.wedge") == 1;
  })) << "the dispatcher never wedged";
  std::shared_ptr<ScoringServer> server = fleet.value()->shard_ref(0);
  EXPECT_EQ(server->inflight_batches(), 1u);
  EXPECT_EQ(server->queue_depth(), 0u);

  monitor.ProbeOnce();
  EXPECT_EQ(monitor.stats().shard_health[0], ShardHealth::kDegraded)
      << "pending work without progress is a stall";

  // The dispatcher is the wedged thread: a second row stays queued
  // rather than being popped into a second batch.
  Result<ScoreTicket> second = fleet.value()->Submit(rows[1]);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE(second.value().WaitFor(std::chrono::milliseconds(50)));
  EXPECT_EQ(server->queue_depth(), 1u);
  EXPECT_EQ(server->inflight_batches(), 1u);

  FaultInjector::Global().ClearRule("server.wedge");
  Result<ScoreResult> a = first.value().Wait();
  Result<ScoreResult> b = second.value().Wait();
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(Bits(a.value().probability),
            Bits(reference.value()[0].probability));
  EXPECT_EQ(Bits(b.value().probability),
            Bits(reference.value()[1].probability));
  EXPECT_TRUE(server->Quiesce(std::chrono::seconds(20)).ok());
  monitor.ProbeOnce();
  EXPECT_EQ(monitor.stats().shard_health[0], ShardHealth::kHealthy);
  monitor.Stop();
}

TEST(FaultHealthTest, SingleShardFleetIsNeverEjected) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(22);
  ASSERT_NE(snapshot, nullptr);
  FleetOptions options;
  options.num_shards = 1;
  Result<std::unique_ptr<ScoringFleet>> fleet =
      ScoringFleet::Create(snapshot, options);
  ASSERT_TRUE(fleet.ok());
  EXPECT_FALSE(fleet.value()->EjectShard(0).ok())
      << "ejecting the only shard would strand all traffic";
  EXPECT_TRUE(fleet.value()->ShardAvailable(0));
}

// ----------------------------------------------------------------- watcher

/// Flips the file's last byte (the stored trailer checksum), atomically:
/// the probe still parses — a NEW identity — but the verified load fails
/// deterministically. Flipping a payload byte instead would leave the
/// stored checksum (the identity) unchanged and the watcher would never
/// look at the file.
void CorruptTrailerByte(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  ASSERT_NE(in, nullptr);
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) bytes.append(buf, n);
  std::fclose(in);
  ASSERT_FALSE(bytes.empty());
  bytes.back() = static_cast<char>(bytes.back() ^ 0x5a);
  std::string tmp = path + ".corrupt";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out), bytes.size());
  std::fclose(out);
  ASSERT_EQ(std::rename(tmp.c_str(), path.c_str()), 0);
}

TEST(FaultWatcherTest, CorruptIdentityQuarantinedGoodSaveStillReloads) {
  std::string path = TestTempPath("fault_quarantine.bin");
  std::shared_ptr<const ModelSnapshot> first = MakeSnapshot(61);
  std::shared_ptr<const ModelSnapshot> second = MakeSnapshot(62);
  std::shared_ptr<const ModelSnapshot> third =
      MakeSnapshot(63, Method::kDiffair);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  ASSERT_NE(third, nullptr);
  ASSERT_TRUE(SaveSnapshot(*first, path).ok());

  std::atomic<uint64_t> reloads{0};
  SnapshotWatcherOptions watch;
  watch.poll_interval = std::chrono::milliseconds(10);
  watch.quarantine_after = 2;
  Result<std::unique_ptr<SnapshotWatcher>> watcher = SnapshotWatcher::Start(
      path,
      [&](std::shared_ptr<const ModelSnapshot>) { reloads.fetch_add(1); },
      watch);
  ASSERT_TRUE(watcher.ok());

  // Publish a corrupt snapshot: probe passes (new identity), load fails.
  ASSERT_TRUE(SaveSnapshot(*second, path).ok());
  CorruptTrailerByte(path);
  ASSERT_TRUE(WaitUntil([&] {
    return watcher.value()->stats().quarantined_identities == 1;
  })) << "corrupt identity was never quarantined";
  SnapshotWatcher::View at_quarantine = watcher.value()->stats();
  EXPECT_EQ(at_quarantine.failed_loads, 2u)
      << "exactly quarantine_after load attempts, then never again";
  EXPECT_EQ(reloads.load(), 0u);
  EXPECT_FALSE(at_quarantine.last_error.empty());

  // Quarantined means quarantined: polling continues, loading does not.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(watcher.value()->stats().failed_loads,
            at_quarantine.failed_loads);
  EXPECT_EQ(reloads.load(), 0u);

  // A subsequent GOOD save (different identity) still hot-reloads.
  ASSERT_TRUE(SaveSnapshot(*third, path).ok());
  ASSERT_TRUE(WaitUntil([&] { return reloads.load() == 1; }))
      << "good save after quarantine never reloaded";
  SnapshotWatcher::View final_view = watcher.value()->stats();
  EXPECT_EQ(final_view.failed_loads, at_quarantine.failed_loads);
  EXPECT_EQ(final_view.quarantined_identities, 1u);
  EXPECT_TRUE(final_view.last_error.empty());
  watcher.value()->Stop();
}

TEST(FaultWatcherTest, TransientLoadFailuresBelowThresholdSelfHeal) {
  std::string path = TestTempPath("fault_transient.bin");
  std::shared_ptr<const ModelSnapshot> first = MakeSnapshot(64);
  std::shared_ptr<const ModelSnapshot> second = MakeSnapshot(65);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  ASSERT_TRUE(SaveSnapshot(*first, path).ok());

  std::atomic<uint64_t> reloads{0};
  SnapshotWatcherOptions watch;
  watch.poll_interval = std::chrono::milliseconds(10);
  watch.quarantine_after = 3;
  Result<std::unique_ptr<SnapshotWatcher>> watcher = SnapshotWatcher::Start(
      path,
      [&](std::shared_ptr<const ModelSnapshot>) { reloads.fetch_add(1); },
      watch);
  ASSERT_TRUE(watcher.ok());

  // Two injected load failures — one short of the quarantine threshold.
  FaultGuard guard(17);
  FaultRule fail_twice;
  fail_twice.max_fires = 2;
  FaultInjector::Global().SetRule("watcher.load", fail_twice);
  ASSERT_TRUE(SaveSnapshot(*second, path).ok());
  ASSERT_TRUE(WaitUntil([&] { return reloads.load() == 1; }))
      << "transient failures must self-heal, not quarantine";
  SnapshotWatcher::View view = watcher.value()->stats();
  EXPECT_EQ(view.failed_loads, 2u);
  EXPECT_EQ(view.quarantined_identities, 0u);
  EXPECT_TRUE(view.last_error.empty()) << "success clears the error";
  watcher.value()->Stop();
}

TEST(FaultWatcherTest, ProbeErrorsBackOffPolling) {
  std::string path = TestTempPath("fault_backoff.bin");
  // Not a snapshot at all: every probe errors, stretching the interval.
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a snapshot file", f);
  std::fclose(f);

  std::atomic<uint64_t> reloads{0};
  SnapshotWatcherOptions watch;
  watch.poll_interval = std::chrono::milliseconds(5);
  watch.backoff_after = 2;
  watch.backoff_multiplier = 4.0;
  watch.max_backoff = std::chrono::milliseconds(200);
  Result<std::unique_ptr<SnapshotWatcher>> watcher = SnapshotWatcher::Start(
      path,
      [&](std::shared_ptr<const ModelSnapshot>) { reloads.fetch_add(1); },
      watch);
  ASSERT_TRUE(watcher.ok());
  ASSERT_TRUE(WaitUntil([&] {
    SnapshotWatcher::View v = watcher.value()->stats();
    return v.failed_loads >= 3 && v.backoff_polls >= 1;
  })) << "persistent probe errors never stretched the poll interval";

  // A good save heals it: the backoff resets and the snapshot deploys.
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(66);
  ASSERT_NE(snapshot, nullptr);
  ASSERT_TRUE(SaveSnapshot(*snapshot, path).ok());
  ASSERT_TRUE(WaitUntil([&] { return reloads.load() == 1; }));
  watcher.value()->Stop();
}

// ---------------------------------------------------------------- snapshot

TEST(FaultSnapshotTest, InjectedPartialSaveFailsCleanAndKeepsOldFile) {
  std::string path = TestTempPath("fault_partial_save.bin");
  std::shared_ptr<const ModelSnapshot> first = MakeSnapshot(71);
  std::shared_ptr<const ModelSnapshot> second = MakeSnapshot(72);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  ASSERT_TRUE(SaveSnapshot(*first, path).ok());

  FaultGuard guard(19);
  FaultInjector::Global().SetRule("snapshot.save.partial", FaultRule{});
  Status failed = SaveSnapshot(*second, path);
  EXPECT_FALSE(failed.ok()) << "the short write must surface as IoError";
  FaultInjector::Global().ClearRule("snapshot.save.partial");

  // The target was never touched (atomic tmp + rename): the old snapshot
  // still loads intact.
  Result<std::shared_ptr<const ModelSnapshot>> reloaded = LoadSnapshot(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
}

TEST(FaultSnapshotTest, InjectedTornReadFailsStrictLoad) {
  std::string path = TestTempPath("fault_torn_read.bin");
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(73);
  ASSERT_NE(snapshot, nullptr);
  ASSERT_TRUE(SaveSnapshot(*snapshot, path).ok());

  FaultGuard guard(23);
  FaultInjector::Global().SetRule("snapshot.load", FaultRule{});
  EXPECT_FALSE(LoadSnapshot(path).ok());
  FaultInjector::Global().ClearRule("snapshot.load");
  EXPECT_TRUE(LoadSnapshot(path).ok());
}

TEST(FaultSnapshotTest, DensityCorruptionDegradesUnderAllowPartial) {
  std::string path = TestTempPath("fault_partial_load.bin");
  std::shared_ptr<const ModelSnapshot> built =
      MakeSnapshot(74, Method::kDiffair, /*with_density=*/true);
  ASSERT_NE(built, nullptr);
  ASSERT_TRUE(built->has_density());
  ASSERT_TRUE(SaveSnapshot(*built, path).ok());

  // Clean strict load and its scores — the bitwise reference.
  Result<std::shared_ptr<const ModelSnapshot>> clean = LoadSnapshot(path);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  std::vector<std::vector<double>> rows = MakeRequests(32, 75);
  Result<std::unique_ptr<ScoringServer>> clean_server =
      ScoringServer::Create(clean.value());
  ASSERT_TRUE(clean_server.ok());
  std::vector<ScoreResult> reference;
  for (const auto& row : rows) {
    Result<ScoreResult> r = clean_server.value()->ScoreSync(row);
    ASSERT_TRUE(r.ok());
    reference.push_back(r.value());
  }
  EXPECT_TRUE(reference[0].density_checked)
      << "test premise: the intact snapshot monitors";

  // With the density section corrupt: strict rejects the file outright,
  // kAllowPartial deploys it degraded.
  FaultGuard guard(29);
  FaultInjector::Global().SetRule("snapshot.density", FaultRule{});
  EXPECT_FALSE(LoadSnapshot(path).ok())
      << "strict mode must reject a corrupt monitor tail";
  SnapshotLoadReport report;
  Result<std::shared_ptr<const ModelSnapshot>> degraded =
      LoadSnapshot(path, SnapshotLoadMode::kAllowPartial, &report);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(report.outcome, SnapshotLoadReport::Outcome::kDegraded);
  EXPECT_FALSE(report.degraded_note.empty());
  FaultInjector::Global().ClearRule("snapshot.density");
  EXPECT_FALSE(degraded.value()->has_density());

  // The degraded snapshot scores bitwise identically to the intact one
  // with monitoring off; only the drift signal is gone.
  Result<std::unique_ptr<ScoringServer>> degraded_server =
      ScoringServer::Create(degraded.value());
  ASSERT_TRUE(degraded_server.ok());
  for (size_t i = 0; i < rows.size(); ++i) {
    Result<ScoreResult> r = degraded_server.value()->ScoreSync(rows[i]);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(Bits(r.value().probability), Bits(reference[i].probability))
        << "row " << i;
    EXPECT_EQ(r.value().label, reference[i].label) << "row " << i;
    EXPECT_EQ(r.value().routed_group, reference[i].routed_group)
        << "row " << i;
    EXPECT_EQ(Bits(r.value().margin), Bits(reference[i].margin))
        << "row " << i;
    EXPECT_TRUE(std::isnan(r.value().log_density)) << "row " << i;
    EXPECT_FALSE(r.value().density_checked) << "row " << i;
  }

  // A strict kAllowPartial load of an INTACT file stays complete.
  SnapshotLoadReport intact_report;
  Result<std::shared_ptr<const ModelSnapshot>> intact =
      LoadSnapshot(path, SnapshotLoadMode::kAllowPartial, &intact_report);
  ASSERT_TRUE(intact.ok());
  EXPECT_EQ(intact_report.outcome, SnapshotLoadReport::Outcome::kComplete);
  EXPECT_TRUE(intact.value()->has_density());
}

// ------------------------------------------------------------ fault matrix

// FAULT_SEED from the environment (the CMake fault-matrix sweep runs the
// FaultMatrix tests under several seeds); rules are hardcoded because the
// ctest ENVIRONMENT property cannot carry the ';'-separated FAULT_SITES
// syntax.
uint64_t MatrixSeed() {
  const char* env = std::getenv("FAULT_SEED");
  if (env == nullptr || *env == '\0') return 42;
  return std::strtoull(env, nullptr, 10);
}

TEST(FaultMatrix, RolloutConvergesUnderProbabilisticDrainStalls) {
  std::shared_ptr<const ModelSnapshot> before = MakeSnapshot(81);
  std::shared_ptr<const ModelSnapshot> after = MakeSnapshot(82);
  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);
  const size_t kClients = 2;
  const size_t kPerClient = 250;
  FleetOptions options;
  options.num_shards = 3;
  options.routing = FleetRoutingPolicy::kRoundRobin;
  options.shard.admission.max_queue_depth = kClients * kPerClient + 16;
  Result<std::unique_ptr<ScoringFleet>> fleet =
      ScoringFleet::Create(before, options);
  ASSERT_TRUE(fleet.ok());

  uint64_t seed = MatrixSeed();
  FaultGuard guard(seed);
  FaultRule stall;
  stall.probability = 0.4;  // any shard's drain barrier, seed-dependent
  FaultInjector::Global().SetRule("fleet.drain", stall);
  FaultRule slow_pop;
  slow_pop.action = FaultAction::kDelay;
  slow_pop.delay = std::chrono::milliseconds(1);
  slow_pop.probability = 0.1;
  FaultInjector::Global().SetRule("queue.pop", slow_pop);

  std::vector<std::vector<ScoreTicket>> tickets(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::vector<double>> rows =
          MakeRequests(kPerClient, 90 + c);
      for (auto& row : rows) {
        Result<ScoreTicket> t = fleet.value()->Submit(std::move(row));
        ASSERT_TRUE(t.ok()) << t.status().ToString();
        tickets[c].push_back(std::move(t).value());
      }
    });
  }
  RollingUpdateOptions rolling;
  rolling.drain_timeout = std::chrono::seconds(30);
  rolling.max_attempts_per_shard = 4;
  rolling.initial_backoff = std::chrono::milliseconds(1);
  rolling.backoff_seed = seed;
  Result<RollingUpdateReport> report =
      fleet.value()->RollingUpdate(after, rolling);
  for (std::thread& t : clients) t.join();

  // Seed-independent invariants: the call succeeds (committed or rolled
  // back), nothing is dropped, and the fleet exits with zero skew.
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  size_t total = 0;
  for (auto& client_tickets : tickets) {
    for (ScoreTicket& t : client_tickets) {
      Result<ScoreResult> r = t.Wait();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ++total;
    }
  }
  EXPECT_EQ(total, kClients * kPerClient);
  FleetStatsView stats = fleet.value()->stats();
  EXPECT_EQ(stats.min_snapshot_version, stats.max_snapshot_version)
      << "seed " << seed << " left the fleet version-skewed";
  uint64_t expected =
      report.value().state == RolloutState::kCommitted ? after->version()
                                                       : before->version();
  EXPECT_EQ(stats.min_snapshot_version, expected)
      << "seed " << seed << ", state "
      << RolloutStateName(report.value().state);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_TRUE(fleet.value()->ShardAvailable(s))
        << "seed " << seed << " left shard " << s << " out of rotation";
  }
}

TEST(FaultMatrix, WatcherHealsThroughProbabilisticLoadFailures) {
  std::string path = TestTempPath("fault_matrix_watch.bin");
  std::shared_ptr<const ModelSnapshot> first = MakeSnapshot(83);
  std::shared_ptr<const ModelSnapshot> second =
      MakeSnapshot(84, Method::kDiffair);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  ASSERT_TRUE(SaveSnapshot(*first, path).ok());

  uint64_t seed = MatrixSeed();
  FaultGuard guard(seed);
  FaultRule flaky;
  flaky.probability = 0.6;
  FaultInjector::Global().SetRule("watcher.load", flaky);

  std::atomic<uint64_t> reloads{0};
  SnapshotWatcherOptions watch;
  watch.poll_interval = std::chrono::milliseconds(5);
  watch.quarantine_after = 0;  // retry forever: the fault is transient
  Result<std::unique_ptr<SnapshotWatcher>> watcher = SnapshotWatcher::Start(
      path,
      [&](std::shared_ptr<const ModelSnapshot>) { reloads.fetch_add(1); },
      watch);
  ASSERT_TRUE(watcher.ok());
  ASSERT_TRUE(SaveSnapshot(*second, path).ok());
  ASSERT_TRUE(WaitUntil([&] { return reloads.load() >= 1; },
                        std::chrono::seconds(60)))
      << "seed " << seed << ": the watcher never healed through the flaky "
      << "loads";
  EXPECT_EQ(watcher.value()->stats().quarantined_identities, 0u);
  watcher.value()->Stop();
}

TEST(FaultMatrix, RemoteScoringShedsTypedErrorsUnderFlakyTransport) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(85);
  ASSERT_NE(snapshot, nullptr);
  net::ShardDaemonOptions daemon_options;
  daemon_options.io_timeout = std::chrono::milliseconds(2000);
  Result<std::unique_ptr<net::ShardDaemon>> daemon =
      net::ShardDaemon::Start(snapshot, daemon_options);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  net::RemoteFleetOptions fleet_options;
  fleet_options.io_timeout = std::chrono::milliseconds(2000);
  fleet_options.start_prober = false;
  Result<std::unique_ptr<net::RemoteFleet>> fleet = net::RemoteFleet::Connect(
      {"127.0.0.1:" + std::to_string(daemon.value()->port())}, fleet_options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  std::vector<std::vector<double>> rows = MakeRequests(48, 86);
  std::vector<uint64_t> want_bits;
  for (const auto& row : rows) {
    Result<ScoreResult> r = fleet.value()->Score(row);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    want_bits.push_back(Bits(r.value().probability));
  }

  uint64_t seed = MatrixSeed();
  {
    FaultGuard guard(seed);
    FaultRule flaky_read;
    flaky_read.probability = 0.2;
    FaultInjector::Global().SetRule("net.read", flaky_read);
    FaultRule flaky_write;
    flaky_write.probability = 0.2;
    FaultInjector::Global().SetRule("net.write", flaky_write);

    // Seed-independent invariant: under injected partial reads/writes on
    // BOTH sides of the wire, every call returns promptly with either
    // the bitwise-correct score or a typed transport error — never a
    // hang, never a silently wrong score, and the single shard is never
    // ejected out of an empty rotation.
    for (size_t i = 0; i < rows.size(); ++i) {
      Result<ScoreResult> r = fleet.value()->Score(rows[i]);
      if (r.ok()) {
        EXPECT_EQ(Bits(r.value().probability), want_bits[i])
            << "seed " << seed << " row " << i;
      } else {
        StatusCode code = r.status().code();
        EXPECT_TRUE(code == StatusCode::kUnavailable ||
                    code == StatusCode::kDeadlineExceeded ||
                    code == StatusCode::kDataLoss)
            << "seed " << seed << " row " << i << ": "
            << r.status().ToString();
      }
    }
    EXPECT_TRUE(fleet.value()->ShardAvailable(0));
  }

  // Disarmed, the same fleet object recovers on a fresh connection and
  // serves bitwise-correct scores again.
  for (size_t i = 0; i < rows.size(); ++i) {
    Result<ScoreResult> r = fleet.value()->Score(rows[i]);
    ASSERT_TRUE(r.ok()) << "seed " << seed << " row " << i << ": "
                        << r.status().ToString();
    EXPECT_EQ(Bits(r.value().probability), want_bits[i])
        << "seed " << seed << " row " << i;
  }
}

TEST(FaultMatrix, TraceAppendFailuresNeverFailScoringAndAreAccounted) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(87);
  ASSERT_NE(snapshot, nullptr);
  std::string path = TestTempPath("fault_trace_matrix.jsonl." +
                              std::to_string(MatrixSeed()));
  std::remove(path.c_str());
  Result<std::unique_ptr<TraceLog>> log = TraceLog::Open(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();

  ServerOptions options;
  options.trace.enabled = true;
  options.trace.sample_modulus = 1;  // every request traces
  options.trace.sink = log.value().get();
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  uint64_t seed = MatrixSeed();
  {
    FaultGuard guard(seed);
    FaultRule flaky;
    flaky.probability = 0.3;  // seed-dependent subset of appends fails
    FaultInjector::Global().SetRule("trace.append", flaky);

    // Seed-independent invariant: a failing trace sink NEVER fails
    // scoring — every request completes with its score.
    std::vector<std::vector<double>> rows = MakeRequests(64, 88);
    for (size_t i = 0; i < rows.size(); ++i) {
      Result<ScoreResult> r = server.value()->ScoreSync(rows[i]);
      ASSERT_TRUE(r.ok())
          << "seed " << seed << " row " << i << ": " << r.status().ToString();
      EXPECT_NE(r.value().trace_id, 0u);
    }
    server.value().reset();  // drain: all emissions settled

    // Accounting closes: every sampled request either landed in the log
    // or was counted as an append failure, nothing double-counted.
    // (The server object is gone but its final stats were folded into
    // the log/injector state we can still observe.)
    uint64_t fires = FaultInjector::Global().fires("trace.append");
    EXPECT_EQ(log.value()->records() + fires, rows.size())
        << "seed " << seed;

    // A failed append never advances the chain: the survivors verify as
    // one unbroken sequence.
    log.value().reset();
    Result<AuditVerifyReport> report = VerifyAuditLogChain(path);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report.value().records, rows.size() - fires);
    EXPECT_FALSE(report.value().torn_tail);
  }
}

TEST(FaultMatrix, TraceAppendFailureCountsSurfaceInServerStats) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(89);
  ASSERT_NE(snapshot, nullptr);
  std::string path = TestTempPath("fault_trace_stats.jsonl." +
                              std::to_string(MatrixSeed()));
  std::remove(path.c_str());
  Result<std::unique_ptr<TraceLog>> log = TraceLog::Open(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();

  ServerOptions options;
  options.trace.enabled = true;
  options.trace.sample_modulus = 1;
  options.trace.sink = log.value().get();
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  uint64_t seed = MatrixSeed();
  FaultGuard guard(seed);
  FaultRule flaky;
  flaky.probability = 0.3;
  FaultInjector::Global().SetRule("trace.append", flaky);

  std::vector<std::vector<double>> rows = MakeRequests(64, 90);
  for (const auto& row : rows) {
    ASSERT_TRUE(server.value()->ScoreSync(row).ok());
  }
  // ScoreSync returns at ticket completion; emission follows on the
  // batch worker. Settle the ledger before reading it.
  ASSERT_TRUE(WaitUntil([&] {
    ServerStats::View v = server.value()->stats();
    return v.trace_append_failures + log.value()->records() ==
           v.trace_sampled;
  })) << "seed " << seed << ": failures="
      << server.value()->stats().trace_append_failures
      << " records=" << log.value()->records()
      << " sampled=" << server.value()->stats().trace_sampled;

  ServerStats::View view = server.value()->stats();
  EXPECT_EQ(view.trace_sampled, rows.size());
  EXPECT_EQ(view.trace_append_failures,
            FaultInjector::Global().fires("trace.append"));
}

#else  // FAIRDRIFT_NO_FAULT_INJECTION

TEST(FaultInjectorTest, CompiledOutSitesAreConstantFalse) {
  // With FAIRDRIFT_FAULT_INJECTION=OFF the macros are literal `false`;
  // arming the injector is inert at every site.
  FaultInjector::Global().Arm(1);
  FaultInjector::Global().SetRule("any.site", FaultRule{});
  EXPECT_FALSE(FAULT_POINT("any.site"));
  EXPECT_FALSE(FAULT_POINT_ARG("any.site", 0));
  EXPECT_EQ(FaultInjector::Global().fires("any.site"), 0u);
  FaultInjector::Global().Disarm();
}

#endif  // FAIRDRIFT_NO_FAULT_INJECTION

}  // namespace
}  // namespace fairdrift
