// Tests for the sharded serving fleet (src/serve/fleet/).
//
// Load-bearing contracts:
//   - Sharding never changes scores: the same request set scored through
//     1, 2, or 3 hash-routed shards produces bitwise-identical results
//     (the snapshot determinism contract, extended across the router).
//   - RollingUpdate under live load drops nothing: every in-flight
//     ticket completes with a score, and after the rollout every shard
//     serves the new snapshot version (skew returns to zero).
//   - SnapshotWatcher turns a SaveSnapshot by another process into a
//     fleet rollout — exercised here in-process through the exact same
//     save path the CI two-process smoke drives.
//   - FleetStats merges, not averages: counters sum across shards and
//     percentiles derive from the merged latency histograms.

#include "serve/fleet/fleet.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "core/deployment.h"
#include "serve/fleet/watcher.h"
#include "serve/snapshot_io.h"
#include "util/rng.h"
#include "test_tmp.h"

namespace fairdrift {
namespace {

// Two-group dataset with numeric attributes and one categorical, linear
// class signal (the serve_test shape).
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

TEST(ShardRouterTest, PoliciesStayInRange) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(7);
  ASSERT_NE(snapshot, nullptr);
  for (FleetRoutingPolicy policy :
       {FleetRoutingPolicy::kRoundRobin, FleetRoutingPolicy::kLeastQueueDepth,
        FleetRoutingPolicy::kHashRow}) {
    FleetOptions options;
    options.num_shards = 3;
    options.routing = policy;
    Result<std::unique_ptr<ScoringFleet>> fleet =
        ScoringFleet::Create(snapshot, options);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    for (const std::vector<double>& row : MakeRequests(32, 11)) {
      Result<ScoreResult> r = fleet.value()->ScoreSync(row);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    FleetStatsView stats = fleet.value()->stats();
    EXPECT_EQ(stats.completed, 32u) << FleetRoutingPolicyName(policy);
  }
}

TEST(ShardRouterTest, HashRoutingIsDeterministic) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(7);
  ASSERT_NE(snapshot, nullptr);
  FleetOptions options;
  options.num_shards = 4;
  options.routing = FleetRoutingPolicy::kHashRow;
  Result<std::unique_ptr<ScoringFleet>> fleet =
      ScoringFleet::Create(snapshot, options);
  ASSERT_TRUE(fleet.ok());
  ShardRouter router(FleetRoutingPolicy::kHashRow, 4);
  std::vector<std::vector<double>> rows = MakeRequests(64, 13);
  for (const auto& row : rows) {
    size_t first = router.Pick(row.data(), row.size(), *fleet.value());
    for (int repeat = 0; repeat < 3; ++repeat) {
      EXPECT_EQ(router.Pick(row.data(), row.size(), *fleet.value()), first);
    }
  }
}

TEST(FleetTest, HashRoutingScoresBitwiseIdenticalAcrossShardCounts) {
  // DIFFAIR (routing + margins) with a density monitor: every ScoreResult
  // field is exercised.
  std::shared_ptr<const ModelSnapshot> snapshot =
      MakeSnapshot(21, Method::kDiffair, /*with_density=*/true);
  ASSERT_NE(snapshot, nullptr);
  std::vector<std::vector<double>> rows = MakeRequests(48, 31);

  std::vector<std::vector<ScoreResult>> by_shard_count;
  for (size_t shards : {1u, 2u, 3u}) {
    FleetOptions options;
    options.num_shards = shards;
    options.routing = FleetRoutingPolicy::kHashRow;
    Result<std::unique_ptr<ScoringFleet>> fleet =
        ScoringFleet::Create(snapshot, options);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    std::vector<ScoreResult> results;
    for (const auto& row : rows) {
      Result<ScoreResult> r = fleet.value()->ScoreSync(row);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      results.push_back(r.value());
    }
    by_shard_count.push_back(std::move(results));
  }
  for (size_t k = 1; k < by_shard_count.size(); ++k) {
    for (size_t i = 0; i < rows.size(); ++i) {
      const ScoreResult& a = by_shard_count[0][i];
      const ScoreResult& b = by_shard_count[k][i];
      EXPECT_EQ(Bits(a.probability), Bits(b.probability)) << "row " << i;
      EXPECT_EQ(a.label, b.label) << "row " << i;
      EXPECT_EQ(a.routed_group, b.routed_group) << "row " << i;
      EXPECT_EQ(Bits(a.margin), Bits(b.margin)) << "row " << i;
      EXPECT_EQ(Bits(a.log_density), Bits(b.log_density)) << "row " << i;
      EXPECT_EQ(a.density_outlier, b.density_outlier) << "row " << i;
    }
  }
}

TEST(FleetTest, RollingUpdateUnderLoadDropsNothing) {
  std::shared_ptr<const ModelSnapshot> before = MakeSnapshot(33);
  std::shared_ptr<const ModelSnapshot> after =
      MakeSnapshot(33, Method::kDiffair);
  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);

  const size_t kClients = 3;
  const size_t kPerClient = 400;
  FleetOptions options;
  options.num_shards = 3;
  options.routing = FleetRoutingPolicy::kRoundRobin;
  options.shard.admission.max_queue_depth = kClients * kPerClient + 16;
  Result<std::unique_ptr<ScoringFleet>> fleet =
      ScoringFleet::Create(before, options);
  ASSERT_TRUE(fleet.ok());

  std::vector<std::vector<ScoreTicket>> tickets(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::vector<double>> rows =
          MakeRequests(kPerClient, 50 + c);
      for (auto& row : rows) {
        Result<ScoreTicket> t = fleet.value()->Submit(std::move(row));
        ASSERT_TRUE(t.ok()) << t.status().ToString();
        tickets[c].push_back(std::move(t).value());
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  RollingUpdateOptions rolling;
  rolling.drain_timeout = std::chrono::seconds(30);
  Result<RollingUpdateReport> report =
      fleet.value()->RollingUpdate(after, rolling);
  for (std::thread& t : clients) t.join();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().shards_updated, 3u);
  EXPECT_EQ(report.value().shards.size(), 3u);

  // Zero drops: every submitted ticket completes with a score, each from
  // exactly one of the two versions.
  size_t total = 0;
  for (auto& client_tickets : tickets) {
    for (ScoreTicket& t : client_tickets) {
      Result<ScoreResult> r = t.Wait();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r.value().snapshot_version == before->version() ||
                  r.value().snapshot_version == after->version());
      ++total;
    }
  }
  EXPECT_EQ(total, kClients * kPerClient);

  // Post-rollout: every shard serves the new version (skew closed) and
  // the update is counted.
  FleetStatsView stats = fleet.value()->stats();
  EXPECT_EQ(stats.min_snapshot_version, after->version());
  EXPECT_EQ(stats.max_snapshot_version, after->version());
  EXPECT_EQ(stats.rolling_updates, 1u);
  Result<ScoreResult> fresh = fleet.value()->ScoreSync(MakeRequests(1, 9)[0]);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().snapshot_version, after->version());
}

TEST(FleetTest, StatsMergeAcrossShards) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(44);
  ASSERT_NE(snapshot, nullptr);
  FleetOptions options;
  options.num_shards = 2;
  options.routing = FleetRoutingPolicy::kRoundRobin;
  Result<std::unique_ptr<ScoringFleet>> fleet =
      ScoringFleet::Create(snapshot, options);
  ASSERT_TRUE(fleet.ok());

  const size_t kRequests = 100;
  for (const auto& row : MakeRequests(kRequests, 77)) {
    Result<ScoreResult> r = fleet.value()->ScoreSync(row);
    ASSERT_TRUE(r.ok());
  }
  FleetStatsView stats = fleet.value()->stats();
  EXPECT_EQ(stats.num_shards, 2u);
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.completed, kRequests);
  ASSERT_EQ(stats.shard_completed.size(), 2u);
  EXPECT_EQ(stats.shard_completed[0] + stats.shard_completed[1], kRequests);
  // Round-robin with sync clients alternates strictly.
  EXPECT_GT(stats.shard_completed[0], 0u);
  EXPECT_GT(stats.shard_completed[1], 0u);
  EXPECT_EQ(stats.queue_depths.size(), 2u);
  // The merged batch-size histogram counts every shard's batches.
  ASSERT_EQ(stats.batch_size_hist.size(), ServerStats::kBatchBuckets);
  uint64_t hist_batches = 0;
  for (uint64_t count : stats.batch_size_hist) hist_batches += count;
  EXPECT_GT(stats.batches, 0u);
  EXPECT_EQ(hist_batches, stats.batches);
  // Percentiles from the merged histogram are ordered and populated.
  EXPECT_GT(stats.p50_latency_us, 0.0);
  EXPECT_LE(stats.p50_latency_us, stats.p95_latency_us);
  EXPECT_LE(stats.p95_latency_us, stats.p99_latency_us);
  // No rollout ran: zero version skew.
  EXPECT_EQ(stats.min_snapshot_version, stats.max_snapshot_version);
  EXPECT_EQ(stats.shed_admission, 0u);
  EXPECT_EQ(stats.invalid, 0u);
}

TEST(FleetTest, UpdateSnapshotSwapsEveryShardImmediately) {
  std::shared_ptr<const ModelSnapshot> before = MakeSnapshot(55);
  std::shared_ptr<const ModelSnapshot> after = MakeSnapshot(56);
  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);
  FleetOptions options;
  options.num_shards = 3;
  Result<std::unique_ptr<ScoringFleet>> fleet =
      ScoringFleet::Create(before, options);
  ASSERT_TRUE(fleet.ok());
  ASSERT_TRUE(fleet.value()->UpdateSnapshot(after).ok());
  FleetStatsView stats = fleet.value()->stats();
  EXPECT_EQ(stats.min_snapshot_version, after->version());
  EXPECT_EQ(stats.max_snapshot_version, after->version());
}

TEST(WatcherTest, PicksUpCrossProcessStyleSave) {
  // The same SaveSnapshot path another process would use (atomic tmp +
  // rename); the CI smoke runs it across two real processes.
  std::string path = TestTempPath("fleet_watch_snap.bin");
  std::shared_ptr<const ModelSnapshot> first = MakeSnapshot(61);
  std::shared_ptr<const ModelSnapshot> second =
      MakeSnapshot(62, Method::kDiffair);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  ASSERT_TRUE(SaveSnapshot(*first, path).ok());

  FleetOptions options;
  options.num_shards = 2;
  Result<std::unique_ptr<ScoringFleet>> fleet =
      ScoringFleet::Create(first, options);
  ASSERT_TRUE(fleet.ok());
  ScoringFleet* fleet_ptr = fleet.value().get();

  std::atomic<uint64_t> delivered_version{0};
  SnapshotWatcherOptions watch;
  watch.poll_interval = std::chrono::milliseconds(20);
  Result<std::unique_ptr<SnapshotWatcher>> watcher = SnapshotWatcher::Start(
      path,
      [&](std::shared_ptr<const ModelSnapshot> fresh) {
        uint64_t version = fresh->version();
        Result<RollingUpdateReport> report =
            fleet_ptr->RollingUpdate(std::move(fresh));
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        delivered_version.store(version);
      },
      watch);
  ASSERT_TRUE(watcher.ok()) << watcher.status().ToString();

  // The pre-existing file is the baseline — it must NOT fire.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(watcher.value()->stats().reloads, 0u);
  EXPECT_EQ(delivered_version.load(), 0u);

  // A new save over the path rolls through the fleet without a restart.
  ASSERT_TRUE(SaveSnapshot(*second, path).ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (delivered_version.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_NE(delivered_version.load(), 0u) << "watcher never fired";
  EXPECT_EQ(watcher.value()->stats().reloads, 1u);
  EXPECT_EQ(watcher.value()->stats().failed_loads, 0u);

  // The fleet now serves the reloaded snapshot (a fresh process-local
  // version stamp, newer than both in-process builds).
  Result<ScoreResult> r = fleet.value()->ScoreSync(MakeRequests(1, 3)[0]);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().snapshot_version, delivered_version.load());
  watcher.value()->Stop();
}

TEST(WatcherTest, DetectsSaveWithIdenticalMtimeAndSize) {
  // Regression: the watcher once short-circuited on an unchanged
  // (mtime, size) stat pair. Two saves landing within the filesystem's
  // timestamp granularity with equal byte counts — here forced exactly
  // equal with utimensat before an atomic rename, the worst case — made
  // the second snapshot invisible until an unrelated change. Identity is
  // now (size, checksum), probed every poll.
  std::string path = TestTempPath("fleet_watch_same_mtime.bin");
  std::shared_ptr<const ModelSnapshot> first = MakeSnapshot(81);
  std::shared_ptr<const ModelSnapshot> second = MakeSnapshot(82);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  ASSERT_TRUE(SaveSnapshot(*first, path).ok());
  struct stat st_first;
  ASSERT_EQ(::stat(path.c_str(), &st_first), 0);

  std::atomic<uint64_t> reloads{0};
  SnapshotWatcherOptions watch;
  watch.poll_interval = std::chrono::milliseconds(20);
  Result<std::unique_ptr<SnapshotWatcher>> watcher = SnapshotWatcher::Start(
      path,
      [&](std::shared_ptr<const ModelSnapshot>) {
        reloads.fetch_add(1);
      },
      watch);
  ASSERT_TRUE(watcher.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(reloads.load(), 0u);  // baseline adopted silently

  // Stage the second snapshot beside the watched path, stamp it with the
  // FIRST file's exact mtime, then rename into place: from the moment it
  // is visible, its stat identity is indistinguishable from the old
  // file's (rename preserves timestamps). Only the bytes differ.
  std::string staging = TestTempPath("fleet_watch_same_mtime.stage.bin");
  ASSERT_TRUE(SaveSnapshot(*second, staging).ok());
  struct stat st_second;
  ASSERT_EQ(::stat(staging.c_str(), &st_second), 0);
  ASSERT_EQ(st_second.st_size, st_first.st_size)
      << "test premise: both saves must have equal byte counts";
  struct timespec times[2] = {st_first.st_atim, st_first.st_mtim};
  ASSERT_EQ(::utimensat(AT_FDCWD, staging.c_str(), times, 0), 0);
  ASSERT_EQ(::rename(staging.c_str(), path.c_str()), 0);

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (reloads.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(reloads.load(), 1u)
      << "equal-mtime equal-size save was never detected";
  EXPECT_EQ(watcher.value()->stats().failed_loads, 0u);
  watcher.value()->Stop();
}

TEST(WatcherTest, RollbackToPreviouslyServedBytesFires) {
  // Content identity is symmetric: re-saving the *older* snapshot over a
  // newer one is a change like any other (an operator rollback), even
  // though the restored bytes were the baseline two generations ago.
  std::string path = TestTempPath("fleet_watch_rollback.bin");
  std::shared_ptr<const ModelSnapshot> first = MakeSnapshot(91);
  std::shared_ptr<const ModelSnapshot> second = MakeSnapshot(92);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  ASSERT_TRUE(SaveSnapshot(*first, path).ok());

  std::atomic<uint64_t> reloads{0};
  SnapshotWatcherOptions watch;
  watch.poll_interval = std::chrono::milliseconds(20);
  Result<std::unique_ptr<SnapshotWatcher>> watcher = SnapshotWatcher::Start(
      path,
      [&](std::shared_ptr<const ModelSnapshot>) {
        reloads.fetch_add(1);
      },
      watch);
  ASSERT_TRUE(watcher.ok());

  auto wait_for = [&](uint64_t count) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (reloads.load() < count &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return reloads.load();
  };

  ASSERT_TRUE(SaveSnapshot(*second, path).ok());
  ASSERT_EQ(wait_for(1), 1u) << "upgrade never detected";
  ASSERT_TRUE(SaveSnapshot(*first, path).ok());  // roll back
  EXPECT_EQ(wait_for(2), 2u) << "rollback to older bytes never detected";
  EXPECT_EQ(watcher.value()->stats().failed_loads, 0u);
  watcher.value()->Stop();
}

TEST(FleetTest, DensityStatsAggregateAcrossShards) {
  std::shared_ptr<const ModelSnapshot> snapshot =
      MakeSnapshot(95, Method::kNoIntervention, /*with_density=*/true);
  ASSERT_NE(snapshot, nullptr);
  ASSERT_TRUE(snapshot->has_density());

  FleetOptions options;
  options.num_shards = 2;
  options.routing = FleetRoutingPolicy::kRoundRobin;
  // The per-deployment override propagates to every shard.
  options.shard.monitor_override =
      MonitorSpec{MonitorMode::kBounded, /*sample_modulus=*/16};
  Result<std::unique_ptr<ScoringFleet>> fleet =
      ScoringFleet::Create(snapshot, options);
  ASSERT_TRUE(fleet.ok());

  std::vector<std::vector<double>> requests = MakeRequests(64, 96);
  for (const auto& row : requests) {
    Result<ScoreResult> r = fleet.value()->ScoreSync(row);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().density_checked);  // bounded mode checks all
    EXPECT_TRUE(std::isnan(r.value().log_density));  // without leaf sums
  }
  FleetStatsView stats = fleet.value()->stats();
  EXPECT_EQ(stats.density_checked, requests.size());
  EXPECT_EQ(stats.outlier_rate,
            static_cast<double>(stats.density_outliers) /
                static_cast<double>(stats.density_checked));
  fleet.value()->Stop();
}

TEST(FleetTest, CreateRejectsBadOptions) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(71);
  ASSERT_NE(snapshot, nullptr);
  FleetOptions zero_shards;
  zero_shards.num_shards = 0;
  EXPECT_FALSE(ScoringFleet::Create(snapshot, zero_shards).ok());
  EXPECT_FALSE(ScoringFleet::Create(nullptr, FleetOptions{}).ok());
}

}  // namespace
}  // namespace fairdrift
