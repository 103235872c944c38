// Tests for the src/serve/ asynchronous scoring subsystem.
//
// The load-bearing contract is determinism: a given request row produces
// bitwise-identical ScoreResult fields through every server configuration
// — batch size 1 or 128, 0 or N pool workers, whatever batch boundaries
// the race between clients and the dispatcher produces. The stress test
// pins it; the rest covers snapshot isolation under swap, deadline
// shedding, admission refusal, queue/batcher semantics, and the stats
// block.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/deployment.h"
#include "serve/admission.h"
#include "serve/audit/auditor.h"
#include "serve/micro_batcher.h"
#include "serve/net/wire.h"
#include "serve/request_queue.h"
#include "serve/server.h"
#include "serve/server_stats.h"
#include "serve/snapshot.h"
#include "util/binary_io.h"
#include "util/fault.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace fairdrift {
namespace {

// Two-group dataset with numeric attributes and one categorical, linear
// class signal. Small enough to profile quickly.
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
    uint64_t seed, Method method = Method::kNoIntervention) {
  Dataset train = MakeTrainingData(500, seed);
  TrainSpec spec = ServingSpec(method);
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

void ExpectBitwiseEqual(const ScoreResult& a, const ScoreResult& b,
                        size_t row) {
  EXPECT_EQ(a.probability, b.probability) << "row " << row;
  EXPECT_EQ(a.label, b.label) << "row " << row;
  EXPECT_EQ(a.routed_group, b.routed_group) << "row " << row;
  EXPECT_EQ(a.margin, b.margin) << "row " << row;
  EXPECT_EQ(a.log_density, b.log_density) << "row " << row;
  EXPECT_EQ(a.density_outlier, b.density_outlier) << "row " << row;
}

// ---------------------------------------------------------------- queue

// A queue-level unit of `count` one-field rows holding first, first + 1,
// ... — what Submit builds, without a server.
PendingRequest MakeUnit(size_t count, double first = 0.0) {
  auto state = std::make_shared<serve_internal::TicketState>();
  state->count = count;
  state->width = 1;
  state->unresolved = count;
  for (size_t i = 0; i < count; ++i) {
    state->rows.push_back(first + static_cast<double>(i));
  }
  if (count > 1) state->rest.resize(count - 1);
  PendingRequest unit;
  unit.ticket = std::move(state);
  unit.count = count;
  return unit;
}

TEST(RequestQueueTest, FifoPushPopAndCapacity) {
  RequestQueue queue(3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(queue.TryPush(MakeUnit(1, static_cast<double>(i))));
  }
  PendingRequest overflow;
  EXPECT_FALSE(queue.TryPush(std::move(overflow)));  // full
  EXPECT_EQ(queue.size(), 3u);

  std::vector<PendingRequest> batch;
  EXPECT_EQ(queue.PopBatch(2, std::chrono::nanoseconds{0}, &batch), 2u);
  EXPECT_EQ(batch[0].ticket->rows[0], 0.0);
  EXPECT_EQ(batch[1].ticket->rows[0], 1.0);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(RequestQueueTest, CloseDrainsThenReturnsZero) {
  RequestQueue queue(8);
  EXPECT_TRUE(queue.TryPush(MakeUnit(1, 1.0)));
  queue.Close();
  PendingRequest rejected;
  EXPECT_FALSE(queue.TryPush(std::move(rejected)));

  std::vector<PendingRequest> batch;
  EXPECT_EQ(queue.PopBatch(4, std::chrono::milliseconds{100}, &batch), 1u);
  batch.clear();
  EXPECT_EQ(queue.PopBatch(4, std::chrono::milliseconds{100}, &batch), 0u);
}

TEST(RequestQueueTest, DepthCountsRowsAndUnitsEnterWhole) {
  RequestQueue queue(40);
  EXPECT_FALSE(queue.TryPush(MakeUnit(64)));  // longer than the bound
  EXPECT_TRUE(queue.TryPush(MakeUnit(30)));
  EXPECT_FALSE(queue.TryPush(MakeUnit(20)));  // 50 rows > 40: none enter
  EXPECT_EQ(queue.size(), 30u);
  EXPECT_TRUE(queue.TryPush(MakeUnit(10)));
  EXPECT_EQ(queue.size(), 40u);
  EXPECT_EQ(queue.Observe().size, 40u);
  EXPECT_FALSE(queue.TryPush(MakeUnit(1)));

  // Popping hands the rows to checked_out(); acknowledging clears them.
  std::vector<PendingRequest> batch;
  EXPECT_EQ(queue.PopBatch(64, std::chrono::nanoseconds{0}, &batch), 40u);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.checked_out(), 40u);
  queue.AckCheckedOut(40);
  EXPECT_EQ(queue.checked_out(), 0u);
}

TEST(RequestQueueTest, LongUnitQueuesAsCapSizedPiecesSharingItsTicket) {
  RequestQueue queue(1000);
  PendingRequest unit = MakeUnit(150);
  const serve_internal::TicketState* ticket = unit.ticket.get();
  ASSERT_TRUE(queue.TryPush(std::move(unit), /*max_piece_rows=*/64));
  EXPECT_EQ(queue.size(), 150u);
  const size_t want_begin[] = {0, 64, 128};
  const size_t want_count[] = {64, 64, 22};
  for (size_t p = 0; p < 3; ++p) {
    std::vector<PendingRequest> batch;
    EXPECT_EQ(queue.PopBatch(64, std::chrono::nanoseconds{0}, &batch),
              want_count[p]);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].ticket.get(), ticket);
    EXPECT_EQ(batch[0].begin, want_begin[p]);
    EXPECT_EQ(batch[0].count, want_count[p]);
  }
  EXPECT_EQ(queue.size(), 0u);

  // A piece over the cap (pushed without splitting) still pops, alone.
  ASSERT_TRUE(queue.TryPush(MakeUnit(100)));
  ASSERT_TRUE(queue.TryPush(MakeUnit(1)));
  std::vector<PendingRequest> batch;
  EXPECT_EQ(queue.PopBatch(64, std::chrono::nanoseconds{0}, &batch), 100u);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(MicroBatcherTest, BatchSizeOneSkipsCoalescingWindow) {
  RequestQueue queue(8);
  ASSERT_TRUE(queue.TryPush(MakeUnit(1, 1.0)));
  BatchingOptions options;
  options.max_batch_size = 1;
  options.max_batch_delay = std::chrono::microseconds{1000000};  // 1s window
  MicroBatcher batcher(&queue, options);
  std::vector<PendingRequest> batch;
  // Must return immediately despite the huge window.
  EXPECT_EQ(batcher.NextBatch(&batch), 1u);
}

// The counterpart of BatchSizeOneSkipsCoalescingWindow for multi-row
// units: all of a unit's rows arrive at once, so waiting out the window
// for more would only idle.
TEST(MicroBatcherTest, MultiRowUnitSkipsCoalescingWindow) {
  BatchingOptions options;
  options.max_batch_size = 64;
  options.max_batch_delay = std::chrono::microseconds{1000000};  // 1s window
  RequestQueue queue(256);
  MicroBatcher batcher(&queue, options);
  ASSERT_TRUE(queue.TryPush(MakeUnit(32)));
  std::vector<PendingRequest> batch;
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(batcher.NextBatch(&batch), 32u);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds{500});

  // A single row opens the window, but a following unit that does not
  // fit the batch ends it: nothing behind the head can be taken.
  ASSERT_TRUE(queue.TryPush(MakeUnit(1)));
  ASSERT_TRUE(queue.TryPush(MakeUnit(64)));
  start = std::chrono::steady_clock::now();
  EXPECT_EQ(batcher.NextBatch(&batch), 1u);
  EXPECT_EQ(batcher.NextBatch(&batch), 64u);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds{500});

  // A single row followed by a unit that fits takes both, whole.
  options.max_batch_delay = std::chrono::microseconds{20000};
  MicroBatcher short_window(&queue, options);
  ASSERT_TRUE(queue.TryPush(MakeUnit(1)));
  ASSERT_TRUE(queue.TryPush(MakeUnit(32)));
  EXPECT_EQ(short_window.NextBatch(&batch), 33u);
  EXPECT_EQ(batch.size(), 2u);
}

// ------------------------------------------------------------- admission

TEST(AdmissionTest, TypedRefusals) {
  AdmissionOptions options;
  options.max_queue_depth = 1;
  AdmissionController admission(options);
  RequestQueue queue(1);
  auto now = std::chrono::steady_clock::now();
  auto none = std::chrono::steady_clock::time_point::max();

  EXPECT_TRUE(admission.Admit(queue, now, none).ok());
  EXPECT_EQ(admission.Admit(queue, now, now - std::chrono::seconds(1)).code(),
            StatusCode::kDeadlineExceeded);

  PendingRequest request;
  ASSERT_TRUE(queue.TryPush(std::move(request)));
  EXPECT_EQ(admission.Admit(queue, now, none).code(),
            StatusCode::kUnavailable);

  queue.Close();
  EXPECT_EQ(admission.Admit(queue, now, none).code(),
            StatusCode::kUnavailable);
}

TEST(AdmissionTest, ResolveDeadlineUsesDefaultPolicy) {
  AdmissionOptions options;
  options.default_deadline = std::chrono::microseconds{500};
  AdmissionController admission(options);
  auto now = std::chrono::steady_clock::now();
  EXPECT_EQ(admission.ResolveDeadline(now, std::chrono::nanoseconds{0}),
            now + std::chrono::microseconds{500});
  EXPECT_EQ(admission.ResolveDeadline(now, std::chrono::milliseconds{3}),
            now + std::chrono::milliseconds{3});

  AdmissionController no_default{AdmissionOptions{}};
  EXPECT_EQ(no_default.ResolveDeadline(now, std::chrono::nanoseconds{0}),
            std::chrono::steady_clock::time_point::max());
}

TEST(AdmissionTest, CostAwareShedsPredictablyDoomedRequests) {
  AdmissionOptions options;
  options.max_queue_depth = 100;
  ASSERT_TRUE(options.cost_aware);  // the default policy
  AdmissionController admission(options);
  RequestQueue queue(100);
  for (int i = 0; i < 10; ++i) {
    PendingRequest request;
    ASSERT_TRUE(queue.TryPush(std::move(request)));
  }
  auto now = std::chrono::steady_clock::now();
  const double ewma_1ms = 1e6;  // ns per batch

  // Unbatched drain: 10 queued batches ahead at ~1ms each, a 2ms
  // deadline is predictably doomed — shed at the door with the deadline
  // status.
  Status doomed = admission.Admit(queue, now, now + std::chrono::milliseconds{2},
                                  ewma_1ms, /*max_batch_size=*/1);
  EXPECT_EQ(doomed.code(), StatusCode::kDeadlineExceeded);

  // Coalescing into one batch of 16 drains the same queue in ~1ms; the
  // identical deadline is feasible.
  EXPECT_TRUE(admission
                  .Admit(queue, now, now + std::chrono::milliseconds{2},
                         ewma_1ms, /*max_batch_size=*/16)
                  .ok());

  // Concurrent workers drain waves of batches in parallel: 10 unbatched
  // requests across 16 lanes cost ~1 wave, so the deadline is feasible.
  EXPECT_TRUE(admission
                  .Admit(queue, now, now + std::chrono::milliseconds{2},
                         ewma_1ms, /*max_batch_size=*/1,
                         /*concurrent_batches=*/16)
                  .ok());

  // An idle server never cost-sheds: the request's own batch does not
  // count (deadlines stop applying once its batch starts scoring), so
  // even a deadline shorter than one batch latency is admitted.
  RequestQueue idle(100);
  EXPECT_TRUE(admission
                  .Admit(idle, now, now + std::chrono::microseconds{100},
                         ewma_1ms, 1)
                  .ok());

  // No deadline -> nothing to predict against.
  EXPECT_TRUE(admission
                  .Admit(queue, now,
                         std::chrono::steady_clock::time_point::max(),
                         ewma_1ms, 1)
                  .ok());

  // No EWMA sample yet (cold server) -> depth-only policy.
  EXPECT_TRUE(admission
                  .Admit(queue, now, now + std::chrono::milliseconds{2},
                         /*ewma_batch_latency_ns=*/0.0, 1)
                  .ok());

  // Policy off -> depth-only even with a signal.
  options.cost_aware = false;
  AdmissionController depth_only(options);
  EXPECT_TRUE(depth_only
                  .Admit(queue, now, now + std::chrono::milliseconds{2},
                         ewma_1ms, 1)
                  .ok());
}

TEST(AdmissionTest, DepthBoundCountsTheUnitsRows) {
  AdmissionOptions options;
  options.max_queue_depth = 40;
  AdmissionController admission(options);
  RequestQueue queue(40);
  auto now = std::chrono::steady_clock::now();
  auto none = std::chrono::steady_clock::time_point::max();
  EXPECT_EQ(admission.Admit(queue, now, none, 0.0, 64, 1, /*rows=*/64).code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(admission.Admit(queue, now, none, 0.0, 64, 1, 40).ok());
  ASSERT_TRUE(queue.TryPush(MakeUnit(30)));
  EXPECT_TRUE(admission.Admit(queue, now, none, 0.0, 64, 1, 10).ok());
  EXPECT_EQ(admission.Admit(queue, now, none, 0.0, 64, 1, 11).code(),
            StatusCode::kUnavailable);
}

// A deadline past the clock's range means none; the sum must never be
// formed (signed overflow, caught by the UBSan job).
TEST(AdmissionTest, FarDeadlinesSaturateToNone) {
  using Clock = std::chrono::steady_clock;
  AdmissionController admission{AdmissionOptions{}};
  auto now = Clock::now();
  EXPECT_EQ(admission.ResolveDeadline(now, std::chrono::nanoseconds::max()),
            Clock::time_point::max());
  EXPECT_EQ(admission.ResolveDeadline(now, Clock::time_point::max() - now),
            Clock::time_point::max());
  const std::chrono::nanoseconds just_inside =
      Clock::time_point::max() - now - std::chrono::nanoseconds{1};
  EXPECT_EQ(admission.ResolveDeadline(now, just_inside), now + just_inside);

  AdmissionOptions far_default;
  far_default.default_deadline = std::chrono::microseconds::max();
  AdmissionController defaulted(far_default);
  EXPECT_EQ(defaulted.ResolveDeadline(now, std::chrono::nanoseconds{0}),
            Clock::time_point::max());
}

// ----------------------------------------------------------------- stats

TEST(ServerStatsTest, EwmaBatchLatencyTracksSamples) {
  ServerStats stats;
  EXPECT_EQ(stats.EwmaBatchLatencyNs(), 0.0);  // no sample yet
  stats.RecordBatch(4, std::chrono::milliseconds{1});
  EXPECT_DOUBLE_EQ(stats.EwmaBatchLatencyNs(), 1e6);  // first sample seeds
  stats.RecordBatch(4, std::chrono::milliseconds{2});
  // alpha = 0.2: 1e6 + 0.2 * (2e6 - 1e6)
  EXPECT_DOUBLE_EQ(stats.EwmaBatchLatencyNs(), 1.2e6);
  EXPECT_DOUBLE_EQ(stats.Snapshot().ewma_batch_latency_us, 1.2e3);
}

TEST(ScoringServerTest, EwmaFedByLiveTraffic) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(23);
  ASSERT_NE(snapshot, nullptr);
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot);
  ASSERT_TRUE(server.ok());
  std::vector<std::vector<double>> rows = MakeRequests(8, 24);
  for (const auto& row : rows) {
    ASSERT_TRUE(server.value()->ScoreSync(row).ok());
  }
  EXPECT_GT(server.value()->stats().ewma_batch_latency_us, 0.0);
}

TEST(ServerStatsTest, PercentilesAndBatchHistogram) {
  ServerStats stats;
  for (int i = 0; i < 90; ++i) {
    stats.RecordCompletion(std::chrono::microseconds{100});
  }
  for (int i = 0; i < 10; ++i) {
    stats.RecordCompletion(std::chrono::milliseconds{10});
  }
  stats.RecordBatch(1);
  stats.RecordBatch(60);
  stats.RecordBatch(64);

  ServerStats::View view = stats.Snapshot();
  EXPECT_EQ(view.completed, 100u);
  // Log-bucketed percentiles: p50 near 100us, p99 near 10ms, monotone.
  EXPECT_GT(view.p50_latency_us, 50.0);
  EXPECT_LT(view.p50_latency_us, 200.0);
  EXPECT_GT(view.p99_latency_us, 5000.0);
  EXPECT_LE(view.p50_latency_us, view.p95_latency_us);
  EXPECT_LE(view.p95_latency_us, view.p99_latency_us);

  EXPECT_EQ(view.batches, 3u);
  EXPECT_NEAR(view.mean_batch_size, (1.0 + 60.0 + 64.0) / 3.0, 1e-9);
  EXPECT_EQ(view.batch_size_hist[0], 1u);  // size 1
  EXPECT_EQ(view.batch_size_hist[5], 1u);  // size 60 in [32, 64)
  EXPECT_EQ(view.batch_size_hist[6], 1u);  // size 64 in [64, 128)
}

TEST(ServerStatsTest, ColdStartViewIsAllDefinedZeros) {
  // Before any traffic, every derived statistic must be a defined zero —
  // not a bucket-0 representative latency, not a NaN rate. Dashboards
  // and the cost-aware admission read these immediately after startup.
  ServerStats stats;
  ServerStats::View view = stats.Snapshot();
  EXPECT_EQ(view.p50_latency_us, 0.0);
  EXPECT_EQ(view.p95_latency_us, 0.0);
  EXPECT_EQ(view.p99_latency_us, 0.0);
  EXPECT_EQ(view.ewma_batch_latency_us, 0.0);
  EXPECT_EQ(view.mean_batch_size, 0.0);
  EXPECT_EQ(view.density_checked, 0u);
  EXPECT_EQ(view.density_outliers, 0u);
  EXPECT_EQ(view.ewma_outlier_rate, 0.0);
  // The percentile helper itself on an explicit all-zero histogram.
  std::vector<uint64_t> empty_hist(ServerStats::kLatencyBuckets, 0);
  EXPECT_EQ(ServerStats::PercentileUsFromHist(empty_hist, 0.50), 0.0);
  EXPECT_EQ(ServerStats::PercentileUsFromHist(empty_hist, 0.99), 0.0);
  EXPECT_EQ(ServerStats::PercentileUsFromHist({}, 0.99), 0.0);
}

TEST(ServerStatsTest, DensityOutlierRateEwma) {
  ServerStats stats;
  // A batch with zero checked rows (fully unsampled) must not move the
  // EWMA — otherwise sampled monitoring would decay the rate toward the
  // seed between samples.
  stats.RecordDensity(0, 0);
  EXPECT_EQ(stats.EwmaOutlierRate(), 0.0);
  EXPECT_EQ(stats.Snapshot().density_checked, 0u);

  // First checked batch seeds the EWMA — including with a legitimate
  // 0.0 rate, which must then count as "seeded", not "unset".
  stats.RecordDensity(10, 0);
  EXPECT_EQ(stats.EwmaOutlierRate(), 0.0);
  stats.RecordDensity(10, 10);
  // alpha = 0.2 over the seeded 0.0: 0.0 + 0.2 * (1.0 - 0.0)
  EXPECT_DOUBLE_EQ(stats.EwmaOutlierRate(), 0.2);
  stats.RecordDensity(0, 0);  // unsampled batch: still no movement
  EXPECT_DOUBLE_EQ(stats.EwmaOutlierRate(), 0.2);

  ServerStats::View view = stats.Snapshot();
  EXPECT_EQ(view.density_checked, 20u);
  EXPECT_EQ(view.density_outliers, 10u);
  EXPECT_DOUBLE_EQ(view.ewma_outlier_rate, 0.2);
}

// ------------------------------------------------------------ stats merge

/// One server's stats, driven with its own batch sizes, batch-latency
/// and outlier EWMAs, density checks, stage samples and audit folds.
struct StatsRecipe {
  std::vector<size_t> batch_sizes;
  int batch_latency_us = 100;
  uint64_t checked = 0;
  uint64_t outliers = 0;
  int completions = 0;
  int latency_us = 100;
  bool audit_metrics = false;
  double di_star = 1.0;
  double spd = 0.0;
  bool alert_active = false;
};

ServerStats::View DriveStats(const StatsRecipe& recipe) {
  ServerStats stats;
  for (size_t rows : recipe.batch_sizes) {
    stats.RecordSubmitted(rows);
    stats.RecordBatch(rows, std::chrono::microseconds(recipe.batch_latency_us));
  }
  stats.RecordDensity(recipe.checked, recipe.outliers);
  for (int i = 0; i < recipe.completions; ++i) {
    stats.RecordCompletion(std::chrono::microseconds(recipe.latency_us + i));
    stats.RecordStageLatency(static_cast<size_t>(i) % ServerStats::kServeStages,
                             std::chrono::microseconds(recipe.latency_us / 2));
  }
  AuditFoldOutcome fold;
  fold.windows = 2;
  fold.breaches = recipe.alert_active ? 1 : 0;
  fold.alerts_raised = recipe.alert_active ? 1 : 0;
  fold.alert_active = recipe.alert_active;
  fold.has_metrics = recipe.audit_metrics;
  fold.di_star = recipe.di_star;
  fold.spd = recipe.spd;
  stats.RecordAuditFold(fold);
  stats.RecordTraceSampled(static_cast<uint64_t>(recipe.completions) / 4);
  return stats.Snapshot();
}

std::string StatsBytes(const ServerStats::View& view) {
  BinaryWriter w;
  net::SerializeStatsView(view, &w);
  return std::move(w).TakeBuffer();
}

std::vector<ServerStats::View> ThreeViews() {
  StatsRecipe a;
  a.batch_sizes = {3, 40};
  a.batch_latency_us = 900;
  a.checked = 20;
  a.outliers = 2;
  a.completions = 43;
  a.latency_us = 150;
  a.audit_metrics = true;
  a.di_star = 0.7;
  a.spd = 0.1;
  StatsRecipe b;
  b.batch_sizes = {64, 64, 7};
  b.batch_latency_us = 300;
  b.checked = 30;
  b.outliers = 9;
  b.completions = 135;
  b.latency_us = 4000;
  b.audit_metrics = true;
  b.di_star = 0.55;
  b.spd = 0.2;
  b.alert_active = true;
  StatsRecipe c;
  c.batch_sizes = {1, 1, 1, 1, 1};
  c.batch_latency_us = 20;
  c.completions = 5;
  c.latency_us = 40;
  return {DriveStats(a), DriveStats(b), DriveStats(c)};
}

TEST(ServerStatsTest, MergeFromGivesTheSameViewInEveryOrder) {
  std::vector<ServerStats::View> views = ThreeViews();
  std::vector<size_t> order = {0, 1, 2};
  std::string first;
  int orders = 0;
  do {
    ServerStats::View merged;
    for (size_t i : order) merged.MergeFrom(views[i]);
    std::string bytes = StatsBytes(merged);
    if (orders++ == 0) first = bytes;
    EXPECT_EQ(bytes, first) << "order " << order[0] << order[1] << order[2];
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(orders, 6);
}

TEST(ServerStatsTest, MergeFromRulesPerField) {
  std::vector<ServerStats::View> views = ThreeViews();
  ServerStats::View merged;
  for (const ServerStats::View& v : views) merged.MergeFrom(v);

  EXPECT_EQ(merged.batches, 10u);
  EXPECT_EQ(merged.submitted, 183u);
  EXPECT_EQ(merged.completed, 183u);
  EXPECT_EQ(merged.density_checked, 50u);
  EXPECT_EQ(merged.audit_windows, 6u);
  // batch_size_hist adds bucket-wise and counts batches.
  ASSERT_EQ(merged.batch_size_hist.size(), ServerStats::kBatchBuckets);
  uint64_t hist_batches = 0;
  for (size_t b = 0; b < ServerStats::kBatchBuckets; ++b) {
    EXPECT_EQ(merged.batch_size_hist[b], views[0].batch_size_hist[b] +
                                             views[1].batch_size_hist[b] +
                                             views[2].batch_size_hist[b])
        << "bucket " << b;
    hist_batches += merged.batch_size_hist[b];
  }
  EXPECT_EQ(hist_batches, merged.batches);
  EXPECT_EQ(merged.batch_size_hist[0], 5u);  // five 1-row batches
  EXPECT_EQ(merged.batch_size_hist[6], 2u);  // two 64-row batches
  // The mean is Σ rows / Σ batches, not an average of means.
  EXPECT_EQ(merged.mean_batch_size, 183.0 / 10.0);
  // Each view's rows are recovered as an integer: on these counts a sum
  // of mean × batches in doubles rounds the merged mean differently.
  ServerStats::View many_a;
  many_a.batches = 606263;
  many_a.mean_batch_size = 27020290.0 / 606263.0;
  ServerStats::View many_b;
  many_b.batches = 678594;
  many_b.mean_batch_size = 12110535.0 / 678594.0;
  ServerStats::View many;
  many.MergeFrom(many_a);
  many.MergeFrom(many_b);
  EXPECT_EQ(many.mean_batch_size,
            (27020290.0 + 12110535.0) / (606263.0 + 678594.0));
  // Both EWMAs keep the worst server's value.
  EXPECT_EQ(merged.ewma_batch_latency_us, views[0].ewma_batch_latency_us);
  EXPECT_DOUBLE_EQ(merged.ewma_batch_latency_us, 900.0);
  EXPECT_EQ(merged.ewma_outlier_rate, views[1].ewma_outlier_rate);
  EXPECT_DOUBLE_EQ(merged.ewma_outlier_rate, 0.3);
  // DI*/SPD come from the lowest-DI* view; the alert ORs in.
  EXPECT_TRUE(merged.audit_has_metrics);
  EXPECT_EQ(merged.audit_last_di_star, 0.55);
  EXPECT_EQ(merged.audit_last_spd, 0.2);
  EXPECT_TRUE(merged.audit_alert_active);
  // Quantiles re-derive from the merged histograms.
  EXPECT_EQ(merged.p99_latency_us,
            ServerStats::PercentileUsFromHist(merged.latency_hist, 0.99));
  EXPECT_GT(merged.p99_latency_us, views[0].p99_latency_us);
  for (size_t s = 0; s < ServerStats::kServeStages; ++s) {
    EXPECT_EQ(merged.stage_p99_us[s],
              ServerStats::PercentileUsFromHist(merged.stage_hist[s], 0.99));
  }

  // Equal DI*: the pair with the higher (less fair) SPD wins, either way
  // round.
  ServerStats::View low_spd = views[1];
  low_spd.audit_last_spd = 0.05;
  ServerStats::View left = low_spd;
  left.MergeFrom(views[1]);
  ServerStats::View right = views[1];
  right.MergeFrom(low_spd);
  EXPECT_EQ(left.audit_last_spd, 0.2);
  EXPECT_EQ(right.audit_last_spd, 0.2);
}

TEST(ServerStatsTest, MergeFromSkipsAHistogramOfAnotherLength) {
  std::vector<ServerStats::View> views = ThreeViews();
  ServerStats::View odd = views[0];
  odd.latency_hist = {1, 2, 3, 4};

  ServerStats::View merged;
  merged.MergeFrom(odd);
  merged.MergeFrom(views[1]);
  merged.MergeFrom(views[2]);
  ASSERT_EQ(merged.latency_hist.size(), ServerStats::kLatencyBuckets);
  for (size_t b = 0; b < ServerStats::kLatencyBuckets; ++b) {
    EXPECT_EQ(merged.latency_hist[b],
              views[1].latency_hist[b] + views[2].latency_hist[b])
        << "bucket " << b;
  }
  // The odd view's counters and other histograms still merge.
  EXPECT_EQ(merged.completed,
            odd.completed + views[1].completed + views[2].completed);
  EXPECT_EQ(merged.batches, 10u);
  EXPECT_EQ(merged.batch_size_hist[5], 1u);  // odd's 40-row batch

  // Skipped wherever it comes in the fold, including as the accumulator.
  ServerStats::View last;
  last.MergeFrom(views[1]);
  last.MergeFrom(views[2]);
  last.MergeFrom(odd);
  EXPECT_EQ(StatsBytes(last), StatsBytes(merged));
  ServerStats::View seeded = odd;
  seeded.MergeFrom(views[1]);
  seeded.MergeFrom(views[2]);
  EXPECT_EQ(StatsBytes(seeded), StatsBytes(merged));
}

// -------------------------------------------------------- monitor modes

TEST(ModelSnapshotTest, MonitorModesAgreeOnOutlierBits) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(30);
  ASSERT_NE(snapshot, nullptr);
  ASSERT_TRUE(snapshot->has_density());
  EXPECT_EQ(snapshot->monitor().mode, MonitorMode::kExact);  // the default

  std::vector<std::vector<double>> rows = MakeRequests(128, 31);
  Matrix m(rows.size(), 4);
  for (size_t i = 0; i < rows.size(); ++i) m.SetRow(i, rows[i]);

  ScoreScratch exact_scratch;
  ASSERT_TRUE(snapshot
                  ->ScoreBatchInto(m, &exact_scratch,
                                   MonitorSpec{MonitorMode::kExact, 16},
                                   nullptr)
                  .ok());
  std::vector<ScoreResult> exact = exact_scratch.results;

  // Bounded: identical outlier bits on every row, no log-density filled.
  ScoreScratch bounded_scratch;
  ASSERT_TRUE(snapshot
                  ->ScoreBatchInto(m, &bounded_scratch,
                                   MonitorSpec{MonitorMode::kBounded, 16},
                                   nullptr)
                  .ok());
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScoreResult& e = exact[i];
    const ScoreResult& b = bounded_scratch.results[i];
    EXPECT_TRUE(e.density_checked);
    EXPECT_TRUE(b.density_checked);
    EXPECT_EQ(b.density_outlier, e.density_outlier) << "row " << i;
    EXPECT_FALSE(std::isnan(e.log_density));
    EXPECT_TRUE(std::isnan(b.log_density));
    // Non-density fields are untouched by the monitor mode.
    EXPECT_EQ(b.probability, e.probability);
    EXPECT_EQ(b.label, e.label);
    EXPECT_EQ(b.margin, e.margin);
  }

  // Sampled: the checked subset is exactly the content-hash predicate,
  // and checked rows carry the same outlier bits as exact mode.
  const uint32_t modulus = 4;
  ScoreScratch sampled_scratch;
  ASSERT_TRUE(snapshot
                  ->ScoreBatchInto(m, &sampled_scratch,
                                   MonitorSpec{MonitorMode::kSampled, modulus},
                                   nullptr)
                  .ok());
  const FeatureEncoder& encoder = snapshot->encoder();
  Matrix numeric;
  ASSERT_TRUE(encoder.NumericRows(m, &numeric).ok());
  size_t checked = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    uint64_t h = Fnv1aHash(reinterpret_cast<const char*>(numeric.RowPtr(i)),
                           numeric.cols() * sizeof(double));
    bool expected_checked = h % modulus == 0;
    const ScoreResult& s = sampled_scratch.results[i];
    EXPECT_EQ(s.density_checked, expected_checked) << "row " << i;
    if (expected_checked) {
      ++checked;
      EXPECT_EQ(s.density_outlier, exact[i].density_outlier) << "row " << i;
    } else {
      EXPECT_FALSE(s.density_outlier);  // never set on unsampled rows
    }
  }
  // Sanity: a modulus of 4 over 128 random rows samples some but not all.
  EXPECT_GT(checked, 0u);
  EXPECT_LT(checked, rows.size());
}

TEST(ScoringServerTest, MonitorOverrideFeedsDensityStats) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(33);
  ASSERT_NE(snapshot, nullptr);
  ASSERT_TRUE(snapshot->has_density());

  ServerOptions options;
  options.monitor_override = MonitorSpec{MonitorMode::kBounded, 16};
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot, options);
  ASSERT_TRUE(server.ok());
  std::vector<std::vector<double>> rows = MakeRequests(32, 34);
  for (const auto& row : rows) {
    Result<ScoreResult> r = server.value()->ScoreSync(row);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().density_checked);
    EXPECT_TRUE(std::isnan(r.value().log_density));  // bounded, not exact
  }
  ServerStats::View view = server.value()->stats();
  EXPECT_EQ(view.density_checked, rows.size());
  EXPECT_LE(view.density_outliers, view.density_checked);
}

// -------------------------------------------------------------- snapshot

TEST(ModelSnapshotTest, ValidatesRowsAndWidth) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(1);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->num_features(), 4u);

  std::vector<double> good = {0.1, -0.2, 0.3, 2.0};
  EXPECT_TRUE(snapshot->ValidateRow(good.data()).ok());
  std::vector<double> bad_code = {0.1, -0.2, 0.3, 7.0};
  EXPECT_EQ(snapshot->ValidateRow(bad_code.data()).code(),
            StatusCode::kInvalidArgument);
  std::vector<double> fractional = {0.1, -0.2, 0.3, 1.5};
  EXPECT_EQ(snapshot->ValidateRow(fractional.data()).code(),
            StatusCode::kInvalidArgument);

  Matrix wrong_width(1, 2);
  EXPECT_FALSE(snapshot->ScoreBatch(wrong_width).ok());
}

TEST(ModelSnapshotTest, VersionsIncreaseAndFieldsPopulate) {
  std::shared_ptr<const ModelSnapshot> a = MakeSnapshot(2);
  std::shared_ptr<const ModelSnapshot> b = MakeSnapshot(2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_LT(a->version(), b->version());

  std::vector<std::vector<double>> rows = MakeRequests(8, 3);
  Matrix m(rows.size(), 4);
  for (size_t i = 0; i < rows.size(); ++i) m.SetRow(i, rows[i]);
  Result<std::vector<ScoreResult>> scores = a->ScoreBatch(m);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  for (const ScoreResult& r : scores.value()) {
    EXPECT_GE(r.probability, 0.0);
    EXPECT_LE(r.probability, 1.0);
    EXPECT_EQ(r.snapshot_version, a->version());
    EXPECT_FALSE(std::isnan(r.log_density));  // density monitor attached
    EXPECT_TRUE(std::isfinite(r.margin));     // profile attached
  }
}

TEST(ModelSnapshotTest, DensityMonitorUsesFullTrainingMatrix) {
  // The profiled build runs the per-cell density filter before fitting
  // the drift monitor on the same (version-tagged) dataset; the filter's
  // cell-level cache hints must not alias the monitor's full-matrix fit
  // (they share slot 0 and differ only by hint space). Both builds must
  // freeze the identical full-training-data density floor.
  Dataset train = MakeTrainingData(500, 22);
  TrainSpec with_profile =
      ServingSpec(Method::kNoIntervention);  // no implicit profiling
  TrainSpec without_profile = ServingSpec(Method::kNoIntervention);
  without_profile.include_profile = false;
  Result<std::shared_ptr<const ModelSnapshot>> a =
      BuildSnapshot(train, with_profile);
  Result<std::shared_ptr<const ModelSnapshot>> b =
      BuildSnapshot(train, without_profile);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  // Ground truth straight from an uncached, unhinted fit on the full
  // numeric matrix (the 1% default quantile of the training split's
  // leave-one-out log-densities — self-terms excluded, so the floor is
  // calibrated for serve-time queries that never carry one). Both builds
  // must freeze exactly this floor.
  Matrix numeric = train.NumericMatrix();
  Result<KernelDensity> direct = KernelDensity::Fit(numeric, {});
  ASSERT_TRUE(direct.ok());
  std::vector<double> logd =
      direct.value().LeaveOneOutLogDensityAll(numeric);
  std::sort(logd.begin(), logd.end());
  double expected =
      logd[static_cast<size_t>(0.01 * static_cast<double>(logd.size() - 1))];
  EXPECT_EQ(a.value()->density_floor(), expected);
  EXPECT_EQ(b.value()->density_floor(), expected);
  EXPECT_TRUE(std::isfinite(expected));
}

TEST(ModelSnapshotTest, DiffairSnapshotRoutesPerRow) {
  std::shared_ptr<const ModelSnapshot> snapshot =
      MakeSnapshot(4, Method::kDiffair);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_TRUE(snapshot->routed());
  std::vector<std::vector<double>> rows = MakeRequests(64, 5);
  Matrix m(rows.size(), 4);
  for (size_t i = 0; i < rows.size(); ++i) m.SetRow(i, rows[i]);
  Result<std::vector<ScoreResult>> scores = snapshot->ScoreBatch(m);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  bool saw_group0 = false;
  bool saw_group1 = false;
  for (const ScoreResult& r : scores.value()) {
    ASSERT_GE(r.routed_group, 0);
    ASSERT_LT(r.routed_group, snapshot->num_groups());
    saw_group0 |= r.routed_group == 0;
    saw_group1 |= r.routed_group == 1;
  }
  // Requests drawn over both groups' supports should hit both models.
  EXPECT_TRUE(saw_group0);
  EXPECT_TRUE(saw_group1);
}

// ---------------------------------------------------------------- server

TEST(ScoringServerTest, ScoreSyncMatchesDirectScoring) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(6);
  ASSERT_NE(snapshot, nullptr);
  std::vector<std::vector<double>> rows = MakeRequests(16, 7);
  Matrix m(rows.size(), 4);
  for (size_t i = 0; i < rows.size(); ++i) m.SetRow(i, rows[i]);
  Result<std::vector<ScoreResult>> reference = snapshot->ScoreBatch(m);
  ASSERT_TRUE(reference.ok());

  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  for (size_t i = 0; i < rows.size(); ++i) {
    Result<ScoreResult> result = server.value()->ScoreSync(rows[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectBitwiseEqual(result.value(), reference.value()[i], i);
  }
}

// The serving determinism contract, stressed: the same 300-request set
// through servers with batch size 1 / 7 / 64 / 128, pool worker counts
// 0 / 1 / 3 / global, submitted by 4 racing client threads (randomizing
// arrival order and therefore every batch cut point). Every row must
// score bitwise identically to the direct single-batch reference.
TEST(ScoringServerTest, DeterministicAcrossBatchingAndWorkers) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(8);
  ASSERT_NE(snapshot, nullptr);
  const size_t kRequests = 300;
  std::vector<std::vector<double>> rows = MakeRequests(kRequests, 9);
  Matrix m(kRequests, 4);
  for (size_t i = 0; i < kRequests; ++i) m.SetRow(i, rows[i]);
  Result<std::vector<ScoreResult>> reference = snapshot->ScoreBatch(m);
  ASSERT_TRUE(reference.ok());

  ThreadPool inline_pool(0);
  ThreadPool single(1);
  ThreadPool several(3);
  struct Config {
    size_t max_batch;
    ThreadPool* pool;
  };
  std::vector<Config> configs = {
      {1, &inline_pool}, {7, &single}, {64, &several}, {128, nullptr}};

  for (const Config& config : configs) {
    ServerOptions options;
    options.batching.max_batch_size = config.max_batch;
    options.batching.max_batch_delay = std::chrono::microseconds{200};
    options.admission.max_queue_depth = kRequests + 8;
    options.pool = config.pool;
    Result<std::unique_ptr<ScoringServer>> server =
        ScoringServer::Create(snapshot, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();

    std::vector<ScoreTicket> tickets(kRequests);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        for (size_t i = c; i < kRequests; i += 4) {
          Result<ScoreTicket> ticket = server.value()->Submit(rows[i]);
          ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
          tickets[i] = std::move(ticket).value();
        }
      });
    }
    for (std::thread& t : clients) t.join();
    for (size_t i = 0; i < kRequests; ++i) {
      Result<ScoreResult> result = tickets[i].Wait();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectBitwiseEqual(result.value(), reference.value()[i], i);
    }
    ServerStats::View stats = server.value()->stats();
    EXPECT_EQ(stats.completed, kRequests);
    EXPECT_EQ(stats.shed_deadline + stats.shed_admission, 0u);
  }
}

// Snapshot isolation under a mid-flight swap: every response must match
// one of the two snapshots' reference scores bitwise, the version field
// must identify which, and traffic after the swap must score the new one.
TEST(ScoringServerTest, SnapshotSwapUnderLoadIsolatesBatches) {
  std::shared_ptr<const ModelSnapshot> v1 = MakeSnapshot(10);
  std::shared_ptr<const ModelSnapshot> v2 = MakeSnapshot(11);
  ASSERT_NE(v1, nullptr);
  ASSERT_NE(v2, nullptr);

  const size_t kRequests = 400;
  std::vector<std::vector<double>> rows = MakeRequests(kRequests, 12);
  Matrix m(kRequests, 4);
  for (size_t i = 0; i < kRequests; ++i) m.SetRow(i, rows[i]);
  Result<std::vector<ScoreResult>> ref1 = v1->ScoreBatch(m);
  Result<std::vector<ScoreResult>> ref2 = v2->ScoreBatch(m);
  ASSERT_TRUE(ref1.ok());
  ASSERT_TRUE(ref2.ok());

  ServerOptions options;
  options.batching.max_batch_size = 16;
  options.admission.max_queue_depth = kRequests + 8;
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(v1, options);
  ASSERT_TRUE(server.ok());

  // Clients hold their last chunk back until the swap has been published,
  // so post-swap traffic — which must score v2 — exists deterministically.
  std::atomic<size_t> submitted{0};
  std::atomic<bool> swapped{false};
  std::vector<ScoreTicket> tickets(kRequests);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < kRequests; i += 3) {
        if (i >= 2 * kRequests / 3) {
          while (!swapped.load()) std::this_thread::yield();
        }
        Result<ScoreTicket> ticket = server.value()->Submit(rows[i]);
        ASSERT_TRUE(ticket.ok());
        tickets[i] = std::move(ticket).value();
        submitted.fetch_add(1);
      }
    });
  }
  // Swap once a chunk of traffic is in flight.
  while (submitted.load() < kRequests / 3) std::this_thread::yield();
  ASSERT_TRUE(server.value()->UpdateSnapshot(v2).ok());
  swapped.store(true);
  for (std::thread& t : clients) t.join();

  size_t scored_v1 = 0;
  size_t scored_v2 = 0;
  for (size_t i = 0; i < kRequests; ++i) {
    Result<ScoreResult> result = tickets[i].Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (result.value().snapshot_version == v1->version()) {
      ++scored_v1;
      ExpectBitwiseEqual(result.value(), ref1.value()[i], i);
    } else {
      ASSERT_EQ(result.value().snapshot_version, v2->version());
      ++scored_v2;
      ExpectBitwiseEqual(result.value(), ref2.value()[i], i);
    }
  }
  EXPECT_EQ(scored_v1 + scored_v2, kRequests);
  EXPECT_GT(scored_v2, 0u);  // the swap landed before the tail

  // Post-drain traffic must score the new snapshot.
  Result<ScoreResult> after = server.value()->ScoreSync(rows[0]);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().snapshot_version, v2->version());
  EXPECT_EQ(server.value()->stats().snapshot_swaps, 1u);
}

TEST(ScoringServerTest, ExpiredDeadlinesShedWithTypedStatus) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(13);
  ASSERT_NE(snapshot, nullptr);
  ServerOptions options;
  // A long coalescing window guarantees the 1ms deadlines expire while
  // the requests sit in the half-full batch.
  options.batching.max_batch_size = 64;
  options.batching.max_batch_delay = std::chrono::milliseconds{50};
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot, options);
  ASSERT_TRUE(server.ok());

  std::vector<std::vector<double>> rows = MakeRequests(8, 14);
  std::vector<ScoreTicket> tickets;
  for (const auto& row : rows) {
    Result<ScoreTicket> ticket =
        server.value()->Submit(row, std::chrono::milliseconds{1});
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(std::move(ticket).value());
  }
  for (ScoreTicket& ticket : tickets) {
    Result<ScoreResult> result = ticket.Wait();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(server.value()->stats().shed_deadline, rows.size());
  EXPECT_EQ(server.value()->stats().completed, 0u);
}

TEST(ScoringServerTest, OverloadInvariantsUnderTinyQueue) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(15);
  ASSERT_NE(snapshot, nullptr);
  ServerOptions options;
  options.batching.max_batch_size = 2;
  options.admission.max_queue_depth = 4;
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot, options);
  ASSERT_TRUE(server.ok());

  const size_t kPerClient = 100;
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> shed{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::vector<double>> rows =
          MakeRequests(kPerClient, 100 + c);
      for (auto& row : rows) {
        Result<ScoreTicket> ticket = server.value()->Submit(std::move(row));
        if (!ticket.ok()) {
          EXPECT_EQ(ticket.status().code(), StatusCode::kUnavailable);
          shed.fetch_add(1);
          continue;
        }
        Result<ScoreResult> result = ticket.value().Wait();
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        accepted.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  ServerStats::View stats = server.value()->stats();
  EXPECT_EQ(accepted.load() + shed.load(), 4 * kPerClient);
  EXPECT_EQ(stats.submitted, accepted.load());
  EXPECT_EQ(stats.completed, accepted.load());
  EXPECT_EQ(stats.shed_admission, shed.load());
}

TEST(ScoringServerTest, StopDrainsTicketsAndRefusesNewTraffic) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(16);
  ASSERT_NE(snapshot, nullptr);
  ServerOptions options;
  options.batching.max_batch_size = 8;
  options.batching.max_batch_delay = std::chrono::milliseconds{20};
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot, options);
  ASSERT_TRUE(server.ok());

  std::vector<std::vector<double>> rows = MakeRequests(20, 17);
  std::vector<ScoreTicket> tickets;
  for (const auto& row : rows) {
    Result<ScoreTicket> ticket = server.value()->Submit(row);
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(std::move(ticket).value());
  }
  server.value()->Stop();
  // Every accepted request completes normally across shutdown.
  for (ScoreTicket& ticket : tickets) {
    Result<ScoreResult> result = ticket.Wait();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  Result<ScoreTicket> refused = server.value()->Submit(rows[0]);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
}

TEST(ScoringServerTest, MalformedRowFailsItsOwnTicketOnly) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(18);
  ASSERT_NE(snapshot, nullptr);
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot);
  ASSERT_TRUE(server.ok());

  // Wrong width refuses synchronously.
  Result<ScoreTicket> wrong_width = server.value()->Submit({1.0, 2.0});
  ASSERT_FALSE(wrong_width.ok());
  EXPECT_EQ(wrong_width.status().code(), StatusCode::kInvalidArgument);

  // A bad category code fails only its own ticket; neighbors complete.
  std::vector<std::vector<double>> rows = MakeRequests(4, 19);
  rows[2][3] = 9.0;  // outside [0, 3)
  std::vector<ScoreTicket> tickets;
  for (const auto& row : rows) {
    Result<ScoreTicket> ticket = server.value()->Submit(row);
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(std::move(ticket).value());
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    Result<ScoreResult> result = tickets[i].Wait();
    if (i == 2) {
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    } else {
      EXPECT_TRUE(result.ok()) << result.status().ToString();
    }
  }
}

TEST(ScoringServerTest, CoalescesConcurrentSubmissionsIntoBatches) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(20);
  ASSERT_NE(snapshot, nullptr);
  ServerOptions options;
  options.batching.max_batch_size = 64;
  options.batching.max_batch_delay = std::chrono::milliseconds{50};
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot, options);
  ASSERT_TRUE(server.ok());

  const size_t kRequests = 32;
  std::vector<std::vector<double>> rows = MakeRequests(kRequests, 21);
  std::vector<ScoreTicket> tickets;
  for (const auto& row : rows) {
    Result<ScoreTicket> ticket = server.value()->Submit(row);
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(std::move(ticket).value());
  }
  for (ScoreTicket& ticket : tickets) {
    EXPECT_TRUE(ticket.Wait().ok());
  }
  ServerStats::View stats = server.value()->stats();
  EXPECT_EQ(stats.completed, kRequests);
  // 32 near-simultaneous submissions into a 50ms window must coalesce
  // into far fewer than 32 single-request batches.
  EXPECT_LE(stats.batches, kRequests / 2);
  EXPECT_GE(stats.mean_batch_size, 2.0);
}

// ------------------------------------------------------ multi-row units

std::vector<double> FlattenRows(const std::vector<std::vector<double>>& rows) {
  std::vector<double> flat;
  for (const auto& row : rows) flat.insert(flat.end(), row.begin(), row.end());
  return flat;
}

Matrix ToMatrix(const std::vector<std::vector<double>>& rows) {
  Matrix m(rows.size(), rows.empty() ? 0 : rows[0].size());
  for (size_t i = 0; i < rows.size(); ++i) m.SetRow(i, rows[i]);
  return m;
}

// A unit longer than the cap is queued as cap-sized pieces: it scores as
// batches of 64, 64 and 22 under its one ticket, bitwise equal to
// direct scoring.
TEST(ScoringServerTest, LongUnitScoresInCapSizedBatchesUnderOneTicket) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(30);
  ASSERT_NE(snapshot, nullptr);
  std::vector<std::vector<double>> rows = MakeRequests(150, 31);
  Result<std::vector<ScoreResult>> reference =
      snapshot->ScoreBatch(ToMatrix(rows));
  ASSERT_TRUE(reference.ok());

  ServerOptions options;
  options.batching.max_batch_size = 64;
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot, options);
  ASSERT_TRUE(server.ok());
  Result<ScoreTicket> ticket = server.value()->Submit(
      FlattenRows(rows), 4, RequestAuditInfo{}, SubmitTraceInfo{},
      std::chrono::nanoseconds{0});
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  EXPECT_EQ(ticket.value().size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    Result<ScoreResult> result = ticket.value().Wait(i);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectBitwiseEqual(result.value(), reference.value()[i], i);
  }
  EXPECT_TRUE(ticket.value().done());
  EXPECT_EQ(ticket.value().Wait(rows.size()).status().code(),
            StatusCode::kFailedPrecondition);

  ServerStats::View stats = server.value()->stats();
  EXPECT_EQ(stats.submitted, 150u);
  EXPECT_EQ(stats.completed, 150u);
  EXPECT_EQ(stats.batches, 3u);
  ASSERT_GE(stats.batch_size_hist.size(), 7u);
  EXPECT_EQ(stats.batch_size_hist[6], 2u);  // [64, 128): the two full pieces
  EXPECT_EQ(stats.batch_size_hist[4], 1u);  // [16, 32): the 22-row tail
}

TEST(ScoringServerTest, MultiRowUnitCompletesWellInsideTheWindow) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(32);
  ASSERT_NE(snapshot, nullptr);
  ServerOptions options;
  options.batching.max_batch_size = 64;
  options.batching.max_batch_delay = std::chrono::microseconds{1000000};
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot, options);
  ASSERT_TRUE(server.ok());

  auto start = std::chrono::steady_clock::now();
  Result<ScoreTicket> ticket = server.value()->Submit(
      FlattenRows(MakeRequests(32, 33)), 4, RequestAuditInfo{},
      SubmitTraceInfo{}, std::chrono::nanoseconds{0});
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  ASSERT_TRUE(ticket.value().Wait().ok());
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds{500});
  EXPECT_EQ(server.value()->stats().batches, 1u);
}

TEST(ScoringServerTest, UnitIsShedWholeWhenItsRowsExceedTheDepthBound) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(34);
  ASSERT_NE(snapshot, nullptr);
  ServerOptions options;
  options.admission.max_queue_depth = 40;
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot, options);
  ASSERT_TRUE(server.ok());

  Result<ScoreTicket> shed = server.value()->Submit(
      FlattenRows(MakeRequests(64, 35)), 4, RequestAuditInfo{},
      SubmitTraceInfo{}, std::chrono::nanoseconds{0});
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  Result<ScoreTicket> fits = server.value()->Submit(
      FlattenRows(MakeRequests(40, 36)), 4, RequestAuditInfo{},
      SubmitTraceInfo{}, std::chrono::nanoseconds{0});
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  ASSERT_TRUE(fits.value().Wait(39).ok());

  ServerStats::View stats = server.value()->stats();
  EXPECT_EQ(stats.shed_admission, 64u);
  EXPECT_EQ(stats.submitted, 40u);
  EXPECT_EQ(stats.completed, 40u);
}

TEST(ScoringServerTest, MalformedUnitShapeIsInvalidArgument) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(37);
  ASSERT_NE(snapshot, nullptr);
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot);
  ASSERT_TRUE(server.ok());
  auto submit = [&](std::vector<double> rows, size_t width) {
    return server.value()->Submit(std::move(rows), width, RequestAuditInfo{},
                                  SubmitTraceInfo{},
                                  std::chrono::nanoseconds{0});
  };
  EXPECT_EQ(submit({1, 2, 3, 4, 5}, 4).status().code(),
            StatusCode::kInvalidArgument);  // not whole rows
  EXPECT_EQ(submit({}, 4).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(submit({1, 2, 3}, 0).status().code(),
            StatusCode::kInvalidArgument);
  // Whole rows of the wrong width: every row of the unit is invalid.
  EXPECT_EQ(submit({1, 2, 3, 4, 5, 6}, 3).status().code(),
            StatusCode::kInvalidArgument);
  ServerStats::View stats = server.value()->stats();
  EXPECT_EQ(stats.invalid, 3u + 2u);
  EXPECT_EQ(stats.submitted, 0u);
}

TEST(ScoringServerTest, BadRowInAUnitFailsOnlyItself) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(38);
  ASSERT_NE(snapshot, nullptr);
  std::vector<std::vector<double>> rows = MakeRequests(16, 39);
  // Every other row's score depends on its own bytes alone, so the
  // reference can score the batch without the bad row.
  Result<std::vector<ScoreResult>> reference =
      snapshot->ScoreBatch(ToMatrix(rows));
  ASSERT_TRUE(reference.ok());
  rows[5][3] = 9.0;  // category code outside [0, 3)

  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot);
  ASSERT_TRUE(server.ok());
  Result<ScoreTicket> ticket = server.value()->Submit(
      FlattenRows(rows), 4, RequestAuditInfo{}, SubmitTraceInfo{},
      std::chrono::nanoseconds{0});
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  for (size_t i = 0; i < rows.size(); ++i) {
    Result<ScoreResult> result = ticket.value().Wait(i);
    if (i == 5) {
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectBitwiseEqual(result.value(), reference.value()[i], i);
  }
  ServerStats::View stats = server.value()->stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.invalid, 1u);
  EXPECT_EQ(stats.completed, 15u);
  EXPECT_EQ(stats.submitted, 16u);
}

// Row accounting and the drain barrier under a mix of unit sizes — single
// rows (which open the window), frame-sized units, and units longer
// than the cap (pieces) — racing into a queue small enough to shed some.
TEST(ScoringServerTest, AccountingAndQuiesceHoldWithMultiRowUnitsInFlight) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(40);
  ASSERT_NE(snapshot, nullptr);
  ServerOptions options;
  options.batching.max_batch_size = 32;
  options.batching.max_batch_delay = std::chrono::milliseconds{2};
  options.admission.max_queue_depth = 200;
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot, options);
  ASSERT_TRUE(server.ok());

  const size_t kSizes[] = {1, 7, 32, 1, 64, 100, 1, 33};
  std::atomic<uint64_t> rows_attempted{0};
  std::vector<std::vector<ScoreTicket>> admitted(4);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (size_t round = 0; round < 6; ++round) {
        for (size_t n : kSizes) {
          std::vector<std::vector<double>> rows =
              MakeRequests(n, 1000 + 100 * c + 10 * round + n);
          if (n == 7) rows[3][3] = 9.0;  // one invalid row per 7-row unit
          rows_attempted.fetch_add(n);
          Result<ScoreTicket> ticket = server.value()->Submit(
              FlattenRows(rows), 4, RequestAuditInfo{}, SubmitTraceInfo{},
              std::chrono::nanoseconds{0});
          if (ticket.ok()) {
            admitted[c].push_back(std::move(ticket).value());
          } else {
            EXPECT_EQ(ticket.status().code(), StatusCode::kUnavailable);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  // Nothing new arrives, so the barrier must certify that every admitted
  // row — queued, coalescing, or in a batch — has resolved.
  ASSERT_TRUE(server.value()->Quiesce(std::chrono::seconds{30}).ok());
  for (const std::vector<ScoreTicket>& tickets : admitted) {
    for (const ScoreTicket& ticket : tickets) EXPECT_TRUE(ticket.done());
  }

  ServerStats::View stats = server.value()->stats();
  EXPECT_EQ(stats.submitted + stats.shed_admission, rows_attempted.load());
  EXPECT_EQ(stats.completed + stats.shed_deadline + stats.invalid,
            stats.submitted);
  EXPECT_GT(stats.completed, 0u);
}

// Blocks every task that waits on it until Open(); opening is
// idempotent.
class Latch {
 public:
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// Blocks every worker of `pool` on `latch` and returns once they all
// wait there.
void BlockEveryWorker(ThreadPool* pool, Latch* latch) {
  std::atomic<size_t> blocked{0};
  for (size_t w = 0; w < pool->num_threads(); ++w) {
    pool->Submit([&blocked, latch] {
      blocked.fetch_add(1);
      latch->Wait();
    });
  }
  while (blocked.load() < pool->num_threads()) std::this_thread::yield();
}

// Opens a latch on scope exit unless disowned (null). Declared after the
// server, so it runs first: an early failure must not leave Stop waiting
// on a batch stuck behind the latch.
struct OpenOnExit {
  Latch* latch;
  ~OpenOnExit() {
    if (latch != nullptr) latch->Open();
  }
};

// The dispatch rule, both ways, on a pool whose every worker is blocked:
// a batch under the cap scores on the dispatch thread and completes
// anyway; a full batch is handed to the pool and waits for a worker. The
// full batch is four single rows that only the cap closes (a 10 s
// window), since a multi-row unit on an idle server never reaches the
// dispatcher.
TEST(ScoringServerTest, BatchUnderTheCapScoresOnTheDispatcherFullOneOnThePool) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(43);
  ASSERT_NE(snapshot, nullptr);
  std::vector<std::vector<double>> rows = MakeRequests(4, 44);
  Result<std::vector<ScoreResult>> reference =
      snapshot->ScoreBatch(ToMatrix(rows));
  ASSERT_TRUE(reference.ok());

  Latch latch;  // outlives the pool, whose workers wait on it
  ThreadPool pool(2);
  BlockEveryWorker(&pool, &latch);

  ServerOptions options;
  options.batching.max_batch_size = 4;
  options.pool = &pool;
  {
    Result<std::unique_ptr<ScoringServer>> server =
        ScoringServer::Create(snapshot, options);
    ASSERT_TRUE(server.ok());
    OpenOnExit open_on_exit{&latch};
    Result<ScoreTicket> one = server.value()->Submit(rows[0]);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    ASSERT_TRUE(one.value().WaitFor(std::chrono::seconds{2}))
        << "a single row waited for a pool worker";
    Result<ScoreResult> single = one.value().Wait();
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    ExpectBitwiseEqual(single.value(), reference.value()[0], 0);
    open_on_exit.latch = nullptr;  // the workers stay blocked for part two
  }

  options.batching.max_batch_delay = std::chrono::seconds{10};
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot, options);
  ASSERT_TRUE(server.ok());
  OpenOnExit open_on_exit{&latch};
  std::vector<ScoreTicket> tickets;
  for (const std::vector<double>& row : rows) {
    Result<ScoreTicket> ticket = server.value()->Submit(row);
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(std::move(ticket).value());
  }
  EXPECT_FALSE(tickets.back().WaitFor(std::chrono::milliseconds{200}))
      << "a full batch must wait for a pool worker";
  EXPECT_EQ(server.value()->inflight_batches(), 1u);
  EXPECT_EQ(server.value()->queue_depth(), 0u);
  latch.Open();
  for (size_t i = 0; i < rows.size(); ++i) {
    Result<ScoreResult> result = tickets[i].Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectBitwiseEqual(result.value(), reference.value()[i], i);
  }
  EXPECT_EQ(server.value()->stats().batches, 1u);
}

// Units submitted from several threads while Stop() runs: each one is
// scored or refused with a typed kUnavailable, every admitted ticket
// completes, and no inflight slot leaks.
TEST(ScoringServerTest, StopRacingUnitSubmitsResolvesEveryUnit) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(53);
  ASSERT_NE(snapshot, nullptr);
  ServerOptions options;
  options.batching.max_batch_size = 32;
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot, options);
  ASSERT_TRUE(server.ok());

  const size_t kSizes[] = {8, 1, 32, 3, 64};
  std::atomic<bool> stopped{false};
  std::atomic<uint64_t> refused{0};
  std::vector<std::vector<ScoreTicket>> admitted(4);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < admitted.size(); ++c) {
    clients.emplace_back([&, c] {
      std::vector<double> rows = FlattenRows(MakeRequests(64, 54 + c));
      for (size_t round = 0;; ++round) {
        // Read before submitting: every client submits once more after
        // Stop has returned, and that one must be refused.
        const bool after_stop = stopped.load();
        const size_t n = kSizes[round % 5];
        Result<ScoreTicket> ticket = server.value()->Submit(
            std::vector<double>(rows.begin(), rows.begin() + 4 * n), 4,
            RequestAuditInfo{}, SubmitTraceInfo{},
            std::chrono::nanoseconds{0});
        if (ticket.ok()) {
          admitted[c].push_back(std::move(ticket).value());
        } else {
          EXPECT_EQ(ticket.status().code(), StatusCode::kUnavailable)
              << ticket.status().ToString();
          refused.fetch_add(1);
        }
        if (after_stop) return;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds{20});
  server.value()->Stop();
  stopped.store(true);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(server.value()->inflight_batches(), 0u);
  EXPECT_GE(refused.load(), admitted.size());
  uint64_t rows_admitted = 0;
  for (const std::vector<ScoreTicket>& tickets : admitted) {
    for (const ScoreTicket& ticket : tickets) {
      ASSERT_TRUE(ticket.done());
      for (size_t i = 0; i < ticket.size(); ++i) {
        EXPECT_TRUE(ticket.Wait(i).ok()) << ticket.Wait(i).status().ToString();
      }
      rows_admitted += ticket.size();
    }
  }
  ServerStats::View stats = server.value()->stats();
  EXPECT_EQ(stats.submitted, rows_admitted);
  EXPECT_EQ(stats.completed, rows_admitted);
}

#ifndef FAIRDRIFT_NO_FAULT_INJECTION

// Disarms the global injector on scope exit, releasing wedged threads.
// Declared after the server, so it runs before Stop joins them.
struct DisarmOnExit {
  ~DisarmOnExit() { FaultInjector::Global().Disarm(); }
};

FaultRule WedgeRule(std::optional<uint64_t> arg = std::nullopt) {
  FaultRule rule;
  rule.action = FaultAction::kWedge;
  rule.arg = arg;
  return rule;
}

void AwaitFires(const char* site, uint64_t fires) {
  while (FaultInjector::Global().fires(site) < fires) {
    std::this_thread::yield();
  }
}

// A multi-row unit that fits a batch and finds the server idle is its
// own batch on the submitting thread: it completes before Submit
// returns, although every pool worker is blocked and the dispatcher is
// wedged before its first pop.
TEST(ScoringServerTest, UnitOnAnIdleServerScoresOnItsSubmittingThread) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(45);
  ASSERT_NE(snapshot, nullptr);
  std::vector<std::vector<double>> rows = MakeRequests(16, 46);
  Result<std::vector<ScoreResult>> reference =
      snapshot->ScoreBatch(ToMatrix(rows));
  ASSERT_TRUE(reference.ok());

  Latch latch;
  ThreadPool pool(2);
  BlockEveryWorker(&pool, &latch);
  FaultInjector::Global().Arm(1);
  FaultInjector::Global().SetRule("queue.pop", WedgeRule());
  ServerOptions options;
  options.pool = &pool;
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot, options);
  DisarmOnExit disarm;
  OpenOnExit open_on_exit{&latch};
  ASSERT_TRUE(server.ok());
  AwaitFires("queue.pop", 1);  // the dispatcher is parked before popping

  Result<ScoreTicket> ticket = server.value()->Submit(
      FlattenRows(rows), 4, RequestAuditInfo{}, SubmitTraceInfo{},
      std::chrono::nanoseconds{0});
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  ASSERT_TRUE(ticket.value().done()) << "the unit waited for a hand-off";
  for (size_t i = 0; i < rows.size(); ++i) {
    Result<ScoreResult> result = ticket.value().Wait(i);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectBitwiseEqual(result.value(), reference.value()[i], i);
  }
  EXPECT_EQ(FaultInjector::Global().hits("queue.pop"), 1u)
      << "the dispatcher popped";
  EXPECT_EQ(server.value()->inflight_batches(), 0u);
  EXPECT_EQ(server.value()->queue_depth(), 0u);
  ServerStats::View stats = server.value()->stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.submitted, rows.size());
  EXPECT_EQ(stats.completed, rows.size());
}

// FIFO: with the dispatcher wedged mid-batch and a single row queued
// behind it, a multi-row unit submitted next queues behind that row
// instead of scoring ahead of it. (Scored on its submitting thread, it
// would wedge there too and Submit would not return.)
TEST(ScoringServerTest, UnitQueuesBehindARowAlreadyQueued) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(47);
  ASSERT_NE(snapshot, nullptr);
  std::vector<std::vector<double>> rows = MakeRequests(6, 48);
  Result<std::vector<ScoreResult>> reference =
      snapshot->ScoreBatch(ToMatrix(rows));
  ASSERT_TRUE(reference.ok());

  FaultInjector::Global().Arm(2);
  ServerOptions options;
  options.fault_tag = 5;
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot, options);
  DisarmOnExit disarm;
  ASSERT_TRUE(server.ok());
  FaultInjector::Global().SetRule("server.wedge", WedgeRule(5));

  Result<ScoreTicket> first = server.value()->Submit(rows[0]);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  AwaitFires("server.wedge", 1);  // the dispatcher is wedged scoring it
  Result<ScoreTicket> queued = server.value()->Submit(rows[1]);
  ASSERT_TRUE(queued.ok()) << queued.status().ToString();
  EXPECT_EQ(server.value()->queue_depth(), 1u);

  std::vector<std::vector<double>> unit_rows(rows.begin() + 2, rows.end());
  std::atomic<bool> returned{false};
  Result<ScoreTicket> unit = Status::Internal("not submitted");
  std::thread submitter([&] {
    unit = server.value()->Submit(FlattenRows(unit_rows), 4,
                                  RequestAuditInfo{}, SubmitTraceInfo{},
                                  std::chrono::nanoseconds{0});
    returned.store(true);
  });
  auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds{5};
  while (!returned.load() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  EXPECT_TRUE(returned.load()) << "the unit was scored ahead of a queued row";
  EXPECT_EQ(FaultInjector::Global().fires("server.wedge"), 1u);
  if (returned.load()) {
    EXPECT_TRUE(unit.ok() && !unit.value().done());
    EXPECT_FALSE(queued.value().done());
    EXPECT_EQ(server.value()->queue_depth(), 1u + unit_rows.size());
  }
  FaultInjector::Global().ClearRule("server.wedge");
  submitter.join();  // no ASSERT above: it would skip the join

  ASSERT_TRUE(first.value().Wait().ok());
  ASSERT_TRUE(queued.value().Wait().ok());
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  for (size_t i = 0; i < unit_rows.size(); ++i) {
    Result<ScoreResult> result = unit.value().Wait(i);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectBitwiseEqual(result.value(), reference.value()[2 + i], 2 + i);
  }
}

// A wedge on a unit scored on its submitting thread blocks that thread
// only: the dispatcher keeps scoring, and the unit holds an inflight
// slot, so health and the drain barrier see pending work.
TEST(ScoringServerTest, WedgedUnitBlocksOnlyItsSubmittingThread) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(51);
  ASSERT_NE(snapshot, nullptr);
  std::vector<std::vector<double>> rows = MakeRequests(9, 52);
  Result<std::vector<ScoreResult>> reference =
      snapshot->ScoreBatch(ToMatrix(rows));
  ASSERT_TRUE(reference.ok());

  FaultInjector::Global().Arm(3);
  ServerOptions options;
  options.fault_tag = 9;
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot, options);
  DisarmOnExit disarm;
  ASSERT_TRUE(server.ok());
  FaultRule wedge = WedgeRule(9);
  wedge.max_fires = 1;
  FaultInjector::Global().SetRule("server.wedge", wedge);

  std::vector<std::vector<double>> unit_rows(rows.begin(), rows.begin() + 8);
  Result<ScoreTicket> unit = Status::Internal("not submitted");
  std::thread submitter([&] {
    unit = server.value()->Submit(FlattenRows(unit_rows), 4,
                                  RequestAuditInfo{}, SubmitTraceInfo{},
                                  std::chrono::nanoseconds{0});
  });
  AwaitFires("server.wedge", 1);  // the submitter is wedged in Submit
  EXPECT_EQ(server.value()->inflight_batches(), 1u);
  Result<ScoreTicket> single = server.value()->Submit(rows[8]);
  EXPECT_TRUE(single.ok() && single.value().WaitFor(std::chrono::seconds{5}))
      << "a single row waited behind the wedged unit";
  EXPECT_EQ(server.value()->inflight_batches(), 1u);
  EXPECT_EQ(server.value()->Quiesce(std::chrono::milliseconds{20}).code(),
            StatusCode::kDeadlineExceeded);

  FaultInjector::Global().ClearRule("server.wedge");
  submitter.join();  // no ASSERT above: it would skip the join
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  Result<ScoreResult> single_result = single.value().Wait();
  ASSERT_TRUE(single_result.ok()) << single_result.status().ToString();
  ExpectBitwiseEqual(single_result.value(), reference.value()[8], 8);
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  EXPECT_TRUE(unit.value().done());
  for (size_t i = 0; i < unit_rows.size(); ++i) {
    Result<ScoreResult> result = unit.value().Wait(i);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectBitwiseEqual(result.value(), reference.value()[i], i);
  }
  EXPECT_EQ(server.value()->inflight_batches(), 0u);
  EXPECT_TRUE(server.value()->Quiesce(std::chrono::seconds{5}).ok());
}

#endif  // FAIRDRIFT_NO_FAULT_INJECTION

TEST(ScoringServerTest, FarDeadlineScoresNormally) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(41);
  ASSERT_NE(snapshot, nullptr);
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot);
  ASSERT_TRUE(server.ok());
  Result<ScoreResult> result = server.value()->ScoreSync(
      MakeRequests(1, 42)[0], std::chrono::nanoseconds::max());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

}  // namespace
}  // namespace fairdrift
