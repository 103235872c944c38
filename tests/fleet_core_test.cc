// Tests for the fleet core (serve/fleet/fleet_core.h): the one
// RolloutDriver and the one ejection rule.
//
// The same cases run against both topologies, an in-process
// ScoringFleet and a RemoteFleet over loopback ShardDaemons: commit,
// retry-then-commit, exhausted retries rolled back with zero skew, zero
// attempts, and the ejection rule (sequential and raced). Each topology
// forces its failures its own way: the in-process fleet through the
// "fleet.swap" fault site, the remote fleet through "net.push.chunk" or
// a stopped daemon. RolloutDriver's revert order and its handling of a
// revert that fails are pinned over a fake {swap, revert} target.

#include "serve/fleet/fleet_core.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/deployment.h"
#include "serve/fleet/fleet.h"
#include "serve/net/remote_fleet.h"
#include "serve/net/shard_daemon.h"
#include "serve/snapshot_manifest.h"
#include "util/fault.h"
#include "util/rng.h"

namespace fairdrift {
namespace {

constexpr size_t kShards = 3;
constexpr std::chrono::milliseconds kIo{2000};

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

std::shared_ptr<const ModelSnapshot> MakeSnapshot(uint64_t seed) {
  Result<std::shared_ptr<const ModelSnapshot>> snapshot = BuildSnapshot(
      MakeTrainingData(400, seed), ServingSpec(Method::kNoIntervention));
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  return snapshot.ok() ? snapshot.value() : nullptr;
}

// ------------------------------------------------- one table, two fleets

/// One fleet topology as the table cases see it.
class FleetUnderTest {
 public:
  virtual ~FleetUnderTest() = default;
  /// Rolls the fleet to the "after" snapshot.
  virtual Result<RollingUpdateReport> Roll(
      const RollingUpdateOptions& options) = 0;
  /// Shard 0's first swap fails; its retry succeeds.
  virtual void FailFirstSwapOnce() = 0;
  /// Every swap of shard `s` fails from now on.
  virtual void FailEverySwapOf(size_t s) = 0;
  /// The version shard `s` serves new batches from.
  virtual uint64_t ServedVersion(size_t s) = 0;
  virtual Status Eject(size_t s) = 0;
  virtual Status Readmit(size_t s) = 0;
  virtual bool Available(size_t s) = 0;
  virtual FleetStatsView Stats() = 0;
};

class InProcessFleet : public FleetUnderTest {
 public:
  InProcessFleet(std::shared_ptr<const ModelSnapshot> before,
                 std::shared_ptr<const ModelSnapshot> after)
      : after_(std::move(after)) {
    FleetOptions options;
    options.num_shards = kShards;
    Result<std::unique_ptr<ScoringFleet>> fleet =
        ScoringFleet::Create(before, options);
    EXPECT_TRUE(fleet.ok()) << fleet.status().ToString();
    if (fleet.ok()) fleet_ = std::move(fleet).value();
  }
  Result<RollingUpdateReport> Roll(
      const RollingUpdateOptions& options) override {
    return fleet_->RollingUpdate(after_, options);
  }
  void FailFirstSwapOnce() override {
    FaultRule once;
    once.arg = 0;
    once.max_fires = 1;
    FaultInjector::Global().SetRule("fleet.swap", once);
  }
  void FailEverySwapOf(size_t s) override {
    FaultRule always;
    always.arg = s;
    FaultInjector::Global().SetRule("fleet.swap", always);
  }
  uint64_t ServedVersion(size_t s) override {
    return fleet_->shard(s)->CurrentSnapshot()->version();
  }
  Status Eject(size_t s) override { return fleet_->EjectShard(s); }
  Status Readmit(size_t s) override { return fleet_->ReadmitShard(s); }
  bool Available(size_t s) override { return fleet_->ShardAvailable(s); }
  FleetStatsView Stats() override { return fleet_->stats(); }

 private:
  std::shared_ptr<const ModelSnapshot> after_;
  std::unique_ptr<ScoringFleet> fleet_;
};

class RemoteFleetUnderTest : public FleetUnderTest {
 public:
  RemoteFleetUnderTest(std::shared_ptr<const ModelSnapshot> before,
                       const std::shared_ptr<const ModelSnapshot>& after) {
    std::vector<std::string> addresses;
    for (size_t s = 0; s < kShards; ++s) {
      net::ShardDaemonOptions options;
      options.io_timeout = kIo;
      Result<std::unique_ptr<net::ShardDaemon>> daemon =
          net::ShardDaemon::Start(before, options);
      EXPECT_TRUE(daemon.ok()) << daemon.status().ToString();
      if (!daemon.ok()) return;
      addresses.push_back("127.0.0.1:" +
                          std::to_string(daemon.value()->port()));
      daemons_.push_back(std::move(daemon).value());
    }
    net::RemoteFleetOptions options;
    options.io_timeout = kIo;
    options.start_prober = false;
    Result<std::unique_ptr<net::RemoteFleet>> fleet =
        net::RemoteFleet::Connect(addresses, options);
    EXPECT_TRUE(fleet.ok()) << fleet.status().ToString();
    if (fleet.ok()) fleet_ = std::move(fleet).value();
    Result<ChunkedSnapshot> chunked = ChunkSnapshot(*after);
    EXPECT_TRUE(chunked.ok()) << chunked.status().ToString();
    if (chunked.ok()) chunked_ = std::move(chunked).value();
  }
  Result<RollingUpdateReport> Roll(
      const RollingUpdateOptions& options) override {
    return fleet_->PushRolling(chunked_, options);
  }
  void FailFirstSwapOnce() override {
    // Shard 0 pushes first: its first chunk is rejected, once.
    FaultRule once;
    once.max_fires = 1;
    FaultInjector::Global().SetRule("net.push.chunk", once);
  }
  void FailEverySwapOf(size_t s) override { daemons_[s]->Stop(); }
  uint64_t ServedVersion(size_t s) override {
    return daemons_[s]->server()->CurrentSnapshot()->version();
  }
  Status Eject(size_t s) override { return fleet_->EjectShard(s); }
  Status Readmit(size_t s) override { return fleet_->ReadmitShard(s); }
  bool Available(size_t s) override { return fleet_->ShardAvailable(s); }
  FleetStatsView Stats() override { return fleet_->stats(); }

 private:
  std::vector<std::unique_ptr<net::ShardDaemon>> daemons_;
  std::unique_ptr<net::RemoteFleet> fleet_;
  ChunkedSnapshot chunked_;
};

class FleetCoreTest : public testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    before_ = MakeSnapshot(11);
    std::shared_ptr<const ModelSnapshot> after = MakeSnapshot(12);
    ASSERT_NE(before_, nullptr);
    ASSERT_NE(after, nullptr);
    if (std::string(GetParam()) == "in_process") {
      fleet_ = std::make_unique<InProcessFleet>(before_, after);
    } else {
      fleet_ = std::make_unique<RemoteFleetUnderTest>(before_, after);
    }
    FaultInjector::Global().Arm(5);
  }
  void TearDown() override { FaultInjector::Global().Disarm(); }

  /// Fast retries: the cases count attempts, not time.
  static RollingUpdateOptions Fast(size_t attempts) {
    RollingUpdateOptions options;
    options.max_attempts_per_shard = attempts;
    options.initial_backoff = std::chrono::milliseconds(1);
    return options;
  }

  void ExpectEveryShardServes(uint64_t version) {
    for (size_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(fleet_->ServedVersion(s), version) << "shard " << s;
      EXPECT_TRUE(fleet_->Available(s)) << "shard " << s;
    }
  }

  std::shared_ptr<const ModelSnapshot> before_;
  std::unique_ptr<FleetUnderTest> fleet_;
};

TEST_P(FleetCoreTest, CommitSwapsEveryShardInOrder) {
  Result<RollingUpdateReport> report = fleet_->Roll(Fast(3));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const RollingUpdateReport& r = report.value();
  EXPECT_EQ(r.state, RolloutState::kCommitted);
  EXPECT_EQ(r.shards_updated, kShards);
  EXPECT_EQ(r.total_attempts, kShards);
  EXPECT_TRUE(r.failure.empty());
  ASSERT_EQ(r.shards.size(), kShards);
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(r.shards[s].shard, s);
    EXPECT_EQ(r.shards[s].attempts, 1u);
    EXPECT_TRUE(r.shards[s].updated);
    EXPECT_NE(r.shards[s].version, before_->version()) << "shard " << s;
    EXPECT_EQ(r.shards[s].version, fleet_->ServedVersion(s))
        << "the report carries the version the shard committed";
    EXPECT_TRUE(fleet_->Available(s));
  }
  FleetStatsView stats = fleet_->Stats();
  EXPECT_EQ(stats.rolling_updates, 1u);
  EXPECT_EQ(stats.rollbacks, 0u);
}

TEST_P(FleetCoreTest, ZeroAttemptsIsInvalidArgumentAndTouchesNothing) {
  Result<RollingUpdateReport> report = fleet_->Roll(Fast(0));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument)
      << report.status().ToString();
  ExpectEveryShardServes(before_->version());
  EXPECT_EQ(fleet_->Stats().rolling_updates, 0u);
}

#ifndef FAIRDRIFT_NO_FAULT_INJECTION

TEST_P(FleetCoreTest, FailedSwapRetriesThenCommits) {
  fleet_->FailFirstSwapOnce();
  Result<RollingUpdateReport> report = fleet_->Roll(Fast(3));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const RollingUpdateReport& r = report.value();
  EXPECT_EQ(r.state, RolloutState::kCommitted);
  EXPECT_EQ(r.shards_updated, kShards);
  EXPECT_EQ(r.total_attempts, kShards + 1);
  ASSERT_EQ(r.shards.size(), kShards);
  EXPECT_EQ(r.shards[0].attempts, 2u) << "the failed swap must retry";
  EXPECT_FALSE(r.shards[0].last_error.empty());
  EXPECT_EQ(r.shards[1].attempts, 1u);
  EXPECT_EQ(r.shards[2].attempts, 1u);
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(fleet_->ServedVersion(s), r.shards[s].version);
    EXPECT_TRUE(fleet_->Available(s));
  }
}

TEST_P(FleetCoreTest, ExhaustedRetriesRollBackWithZeroSkew) {
  fleet_->FailEverySwapOf(kShards - 1);
  Result<RollingUpdateReport> report = fleet_->Roll(Fast(2));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const RollingUpdateReport& r = report.value();
  EXPECT_EQ(r.state, RolloutState::kRolledBack);
  EXPECT_FALSE(r.failure.empty());
  EXPECT_EQ(r.shards_updated, kShards - 1);
  ASSERT_EQ(r.shards.size(), kShards) << "one entry per attempted shard";
  for (size_t s = 0; s + 1 < kShards; ++s) {
    EXPECT_EQ(r.shards[s].shard, s);
    EXPECT_TRUE(r.shards[s].updated) << "shard " << s;
    EXPECT_TRUE(r.shards[s].rolled_back) << "shard " << s;
  }
  EXPECT_FALSE(r.shards[kShards - 1].updated);
  EXPECT_EQ(r.shards[kShards - 1].attempts, 2u);
  // Zero skew at exit: every shard serves the prior snapshot again, and
  // none is left routed around.
  ExpectEveryShardServes(before_->version());
  FleetStatsView stats = fleet_->Stats();
  EXPECT_EQ(stats.rolling_updates, 1u);
  EXPECT_EQ(stats.rollbacks, 1u);
}

#endif  // FAIRDRIFT_NO_FAULT_INJECTION

TEST_P(FleetCoreTest, LastRoutableShardIsNeverEjected) {
  EXPECT_EQ(fleet_->Eject(kShards).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(fleet_->Readmit(kShards).code(), StatusCode::kOutOfRange);
  for (size_t s = 0; s + 1 < kShards; ++s) {
    EXPECT_TRUE(fleet_->Eject(s).ok()) << "shard " << s;
  }
  Status last = fleet_->Eject(kShards - 1);
  EXPECT_EQ(last.code(), StatusCode::kFailedPrecondition) << last.ToString();
  EXPECT_TRUE(fleet_->Available(kShards - 1));
  EXPECT_TRUE(fleet_->Eject(0).ok()) << "ejecting an ejected shard is a no-op";
  ASSERT_TRUE(fleet_->Readmit(0).ok());
  EXPECT_TRUE(fleet_->Available(0));
  EXPECT_TRUE(fleet_->Eject(kShards - 1).ok())
      << "with shard 0 back, the last shard may go";
  FleetStatsView stats = fleet_->Stats();
  EXPECT_EQ(stats.ejections, kShards);
  EXPECT_EQ(stats.readmissions, 1u);
  ASSERT_EQ(stats.shard_ejected.size(), kShards);
  EXPECT_EQ(stats.shard_ejected[0], 0u);
  for (size_t s = 1; s < kShards; ++s) EXPECT_EQ(stats.shard_ejected[s], 1u);
}

TEST_P(FleetCoreTest, RacingEjectorsNeverStrandTheFleet) {
  // Two ejectors race on the last two routable shards, round after
  // round: exactly one may win each time.
  ASSERT_TRUE(fleet_->Eject(kShards - 1).ok());
  constexpr int kRounds = 300;
  std::atomic<int> round{-1};
  std::atomic<int> finished{0};
  std::vector<std::vector<Status>> results(2, std::vector<Status>(kRounds));
  auto racer = [&](size_t s) {
    for (int r = 0; r < kRounds; ++r) {
      while (round.load(std::memory_order_acquire) < r) {
        std::this_thread::yield();
      }
      results[s][r] = fleet_->Eject(s);
      finished.fetch_add(1, std::memory_order_acq_rel);
    }
  };
  std::thread a(racer, 0);
  std::thread b(racer, 1);
  for (int r = 0; r < kRounds; ++r) {
    finished.store(0, std::memory_order_release);
    round.store(r, std::memory_order_release);
    while (finished.load(std::memory_order_acquire) < 2) {
      std::this_thread::yield();
    }
    EXPECT_NE(results[0][r].ok(), results[1][r].ok()) << "round " << r;
    EXPECT_TRUE(fleet_->Available(0) || fleet_->Available(1))
        << "round " << r << " stranded the fleet";
    ASSERT_TRUE(fleet_->Readmit(0).ok());
    ASSERT_TRUE(fleet_->Readmit(1).ok());
  }
  a.join();
  b.join();
}

INSTANTIATE_TEST_SUITE_P(BothFleets, FleetCoreTest,
                         testing::Values("in_process", "remote"),
                         [](const testing::TestParamInfo<const char*>& p) {
                           return std::string(p.param);
                         });

// ------------------------------------------- RolloutDriver, on a fake

/// A {swap, revert} target over plain integers: shard s serves
/// served[s]; swaps and reverts fail on the configured shards.
struct FakeTarget {
  explicit FakeTarget(size_t n) : shards(n), rollouts(&shards), served(n, 1) {}

  Result<RollingUpdateReport> Run(size_t attempts) {
    RolloutTarget target;
    target.swap = [this](size_t s, uint64_t* version) {
      swaps.push_back(s);
      // Out of rotation while it swaps, and only it.
      for (size_t i = 0; i < served.size(); ++i) {
        EXPECT_EQ(shards.draining(i), i == s) << "shard " << i;
      }
      if (s == failing_swap) return Status::Unavailable("swap refused");
      served[s] = *version = 2;
      return Status::OK();
    };
    target.revert = [this](size_t s) {
      reverts.push_back(s);
      EXPECT_TRUE(shards.draining(s));
      for (size_t bad : failing_reverts) {
        if (s == bad) return Status::Unavailable("revert refused");
      }
      served[s] = 1;
      return Status::OK();
    };
    RollingUpdateOptions options;
    options.max_attempts_per_shard = attempts;
    options.initial_backoff = std::chrono::nanoseconds(0);
    return rollouts.Run(target, options);
  }

  ShardAvailability shards;
  RolloutDriver rollouts;
  std::vector<uint64_t> served;
  size_t failing_swap = static_cast<size_t>(-1);
  std::vector<size_t> failing_reverts;
  std::vector<size_t> swaps;
  std::vector<size_t> reverts;
};

TEST(RolloutDriverTest, ReportHasOneEntryPerAttemptedShardAndRevertsInReverse) {
  FakeTarget fake(5);
  fake.failing_swap = 3;
  Result<RollingUpdateReport> report = fake.Run(2);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const RollingUpdateReport& r = report.value();
  EXPECT_EQ(r.state, RolloutState::kRolledBack);
  ASSERT_EQ(r.shards.size(), 4u) << "no entries for never-attempted shards";
  for (size_t s = 0; s < r.shards.size(); ++s) EXPECT_EQ(r.shards[s].shard, s);
  EXPECT_EQ(fake.swaps, (std::vector<size_t>{0, 1, 2, 3, 3}));
  EXPECT_EQ(fake.reverts, (std::vector<size_t>{2, 1, 0}));
  EXPECT_EQ(fake.served, (std::vector<uint64_t>{1, 1, 1, 1, 1}));
  for (size_t s = 0; s < fake.served.size(); ++s) {
    EXPECT_FALSE(fake.shards.draining(s));
  }
  ShardAvailability::Counters counters = fake.shards.counters();
  EXPECT_EQ(counters.rolling_updates, 1u);
  EXPECT_EQ(counters.rollbacks, 1u);
}

TEST(RolloutDriverTest, FailedRevertIsInternalNamingEveryStrandedShard) {
  FakeTarget fake(4);
  fake.failing_swap = 3;
  fake.failing_reverts = {0, 2};
  Result<RollingUpdateReport> report = fake.Run(1);
  ASSERT_FALSE(report.ok()) << "a failed revert must not read as healed";
  EXPECT_EQ(report.status().code(), StatusCode::kInternal);
  const std::string& message = report.status().message();
  EXPECT_NE(message.find("2 (revert refused)"), std::string::npos) << message;
  EXPECT_NE(message.find("0 (revert refused)"), std::string::npos) << message;
  EXPECT_EQ(message.find("1 (revert refused)"), std::string::npos) << message;
  // The failed revert of shard 2 did not stop shards 1 and 0's.
  EXPECT_EQ(fake.reverts, (std::vector<size_t>{2, 1, 0}));
  EXPECT_EQ(fake.served, (std::vector<uint64_t>{2, 1, 2, 1}));
}

TEST(RolloutDriverTest, ZeroAttemptsNeverSwaps) {
  FakeTarget fake(2);
  Result<RollingUpdateReport> report = fake.Run(0);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(fake.swaps.empty());
  EXPECT_EQ(fake.shards.counters().rolling_updates, 0u);
}

}  // namespace
}  // namespace fairdrift
