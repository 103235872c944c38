// perfbench: the repository's end-to-end benchmark.
//
// One binary, two workloads, two modes. Both workloads run the same
// schedule against their own target and traffic:
//
//   serve phase    open-loop Poisson arrivals at a fixed low rate, a fixed
//                  high rate, then an ascending rate ladder that finds the
//                  highest rate meeting the p99 limit without a growing
//                  backlog or a late generator;
//   rollout phase  Fit -> Freeze -> SaveSnapshot -> LoadSnapshot -> swap
//                  (or push) -> first score on the new version, alternating
//                  CONFAIR and DIFFAIR, while a background stream scores at
//                  the low rate.
//
// The untraced mode reports the end-to-end metrics. The traced mode wraps
// the public calls in clock reads, keeps spans in memory (written once at
// exit) and re-issues work through each layer's public functions to build
// the per-layer ledger. The system is driven only through public library
// functions; nothing here reaches into src/ internals.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/artifacts.h"
#include "data/dataset.h"
#include "serve/audit/auditor.h"
#include "serve/net/remote_fleet.h"
#include "serve/net/shard_daemon.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace perfbench {

using fairdrift::Dataset;
using fairdrift::ModelSnapshot;
using fairdrift::ScoreResult;
using SnapshotPtr = std::shared_ptr<const ModelSnapshot>;

// ------------------------------------------------------------ harness

/// CLOCK_MONOTONIC in nanoseconds (the clock std::steady_clock reads).
uint64_t NowNs();
/// Sleeps until `deadline_ns` on the monotonic clock (absolute sleep).
void SleepUntilNs(uint64_t deadline_ns);
/// Asks the kernel for 1 ns timer slack on the calling thread, so the
/// open-loop generator wakes at its due times instead of ~50 us late.
void TightenTimerSlack();
/// Process user+system CPU seconds.
double ProcessCpuSeconds();
/// CPU seconds of the calling thread.
double ThreadCpuSeconds();
/// Peak resident set size of the process in MiB.
double PeakRssMb();

/// Heap allocations counted by the binary's operator new while counting
/// is enabled (traced runs only; untraced runs pay one relaxed load).
void SetAllocCounting(bool on);
uint64_t AllocCount();

/// Nearest-rank quantile (q in [0, 1]) of `values`; NaN when empty.
double Quantile(std::vector<double> values, double q);

/// Poisson arrival process: exponential gaps at `rate` per second from a
/// splitmix64-seeded xorshift128+ stream, so one seed gives one schedule
/// on any platform.
class PoissonSchedule {
 public:
  PoissonSchedule(double rate_per_s, uint64_t seed);
  /// Next inter-arrival gap in nanoseconds.
  double NextGapNs();

 private:
  double rate_;
  uint64_t state_[2];
};

/// True when `name` matches [A-Za-z0-9_.-]+.
bool ValidMetricName(const std::string& name);

/// Runs the harness self-tests; prints failures to stderr.
bool RunSelfTests();

/// In-memory span store for traced runs, written once at exit.
struct Span {
  const char* name;
  const char* parent;  // parent span name ("" for roots)
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t id;  // request or rollout id
};

class SpanLog {
 public:
  explicit SpanLog(size_t capacity) : capacity_(capacity) {}
  /// Adds a thread's batch of spans under one lock; spans beyond the
  /// capacity are counted as dropped.
  void AddAll(const std::vector<Span>& spans);
  uint64_t dropped() const { return dropped_.load(); }
  size_t size() const;
  /// Writes one JSON object per line; returns false on I/O failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  size_t capacity_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<uint64_t> dropped_{0};
};

// ------------------------------------------------------------ fixture

enum class Workload { kServeInproc, kServeRemote };

struct Options {
  Workload workload = Workload::kServeInproc;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 16.0;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench/work";
  std::string commit = "unknown";
};

/// Offered rates and limits of one workload, fixed once. Rates are rows
/// per second; a remote request is a 64-row frame.
struct RatePlan {
  double low_rps = 0;
  double high_rps = 0;
  std::vector<double> ladder_rps;
  double p99_limit_us = 0;
  size_t rows_per_request = 1;
  /// Share of --seconds given to the low and high steps together, run as
  /// `slices` alternating slices of each; share given to each ladder step.
  double level_share = 0.6;
  size_t slices = 12;
  double ladder_share = 0.02;
  /// Share of --seconds given to the closed-loop saturation step.
  double saturated_share = 0.2;
  /// CONFAIR+DIFFAIR rollout pairs in the rollout phase.
  size_t rollout_pairs = 4;
};

RatePlan PlanFor(Workload workload);

/// Request rows of one traffic mix, row-major in schema layout, with the
/// direct-scoring reference result of every row under the serving
/// snapshot and the audit metadata (group, label) of every row.
struct RowPool {
  size_t width = 0;
  size_t count = 0;
  std::vector<double> rows;
  std::vector<int> groups;
  std::vector<int> labels;
  std::vector<ScoreResult> reference;
  const double* row(size_t i) const { return rows.data() + i * width; }
};

/// Everything set up before timing starts.
struct Fixture {
  Options options;
  RatePlan plan;
  Dataset pool;            // 2x MEPS-size draw (training rows come from it)
  SnapshotPtr snapshot;    // the serving snapshot (routed DIFFAIR, LR)
  RowPool traffic;         // the workload's request rows
  std::unique_ptr<fairdrift::FleetAuditor> auditor;  // in-process audit
  std::unique_ptr<fairdrift::ScoringServer> server;  // in-process target
  std::vector<std::unique_ptr<fairdrift::net::ShardDaemon>> daemons;
  std::vector<std::unique_ptr<fairdrift::net::RemoteFleet>> fleets;
  /// Rows sent to the target by every caller (accounting checks).
  std::atomic<uint64_t> remote_rows_sent{0};
  std::atomic<uint64_t> inproc_rows_sent{0};
  uint64_t daemon_connections_after_setup = 0;
  std::vector<double> setup_seconds;
  SpanLog* spans = nullptr;  // traced runs only
};

/// The serving TrainSpec: DIFFAIR or CONFAIR, LR, profile, bounded
/// density monitor.
fairdrift::TrainSpec RolloutSpec(fairdrift::Method method);

/// A fresh MEPS-size training set: a seeded draw of distinct rows from
/// the fixture's pool (fresh content, so KdeCache cannot serve the fit).
Dataset FreshTrainingSet(const Dataset& pool, uint64_t seed);

/// Builds the fixture (repeated set-ups; the last one is kept).
bool SetUp(Fixture* fx, int repeats, std::string* error);
void TearDown(Fixture* fx);

/// Bitwise equality of every deterministic ScoreResult field.
bool SameScore(const ScoreResult& a, const ScoreResult& b);

// ------------------------------------------------------------ load

/// Scores that carried a version other than the fixture snapshot's are
/// checked after the run against the snapshot that version names.
struct DeferredCheck {
  uint32_t row;
  uint64_t version;
  ScoreResult result;
};

/// One open-loop step (or the background stream of the rollout phase).
struct StepResult {
  double offered_rps = 0;
  uint64_t requests = 0;        // requests due and sent
  uint64_t rows_attempted = 0;
  uint64_t rows_ok = 0;
  uint64_t rows_shed = 0;
  uint64_t rows_invalid = 0;
  uint64_t rows_deadline = 0;
  uint64_t rows_transport = 0;
  uint64_t mismatches = 0;
  std::vector<double> latency_us;  // per request; +inf when it failed
  std::vector<uint64_t> due_ns;    // when each latency_us request was due
  std::vector<double> gen_lag_us;
  uint64_t backlog_end = 0;  // requests due by step end, not yet done
  double cpu_seconds = 0;
  uint64_t allocs = 0;
  // Traced only (in-process path): Submit call and Submit->Wait times.
  std::vector<double> submit_ns;
  std::vector<double> wait_us;
  std::vector<DeferredCheck> deferred;

  uint64_t rows_failed() const {
    return rows_shed + rows_invalid + rows_deadline + rows_transport;
  }
  void Absorb(StepResult&& other);
};

/// Runs one open-loop step at `rate_rps` for `seconds`, or until `stop`
/// becomes true when it is non-null (then `seconds` only sizes the
/// schedule). `stream` picks the request-row sequence.
StepResult RunStep(Fixture* fx, double rate_rps, double seconds,
                   uint64_t stream, const std::atomic<bool>* stop);

/// Runs the low and high steps for `seconds` together, interleaved in
/// the plan's alternating slices, so that a spell of outside load (another
/// tenant on the host) lands on a few slices of both levels alike.
void RunLevels(Fixture* fx, double seconds, StepResult* low,
               StepResult* high);

/// Closed loop at saturation: keeps the target busy (512 rows
/// outstanding in process; every sender with a frame in flight remote)
/// for `seconds` and returns the rows completed per second in each of
/// `windows` equal spans. Outcomes are checked into `res`.
std::vector<double> RunSaturated(Fixture* fx, double seconds,
                                 uint64_t stream, size_t windows,
                                 StepResult* res);

/// The q-quantile of the step's latency, robust to a spell of outside
/// load: the requests are cut by due time into up to `max_windows`
/// windows, each with at least ten requests beyond the quantile, and the
/// median of the windows' quantiles is returned. A stall then moves a
/// few windows, not the result.
double StepQuantile(const StepResult& step, double q, size_t max_windows);

/// Did the step meet the plan: p99 under the limit, no failures, no
/// growing backlog, generator on time. `why` names the first miss.
bool StepMet(const Fixture& fx, const StepResult& step, std::string* why);

// ------------------------------------------------------------ rollout

struct RolloutRecord {
  fairdrift::Method method = fairdrift::Method::kConfair;
  double fit_s = 0, freeze_s = 0, save_s = 0, load_s = 0;
  double swap_us = 0, first_score_us = 0, total_s = 0;
  uint64_t snapshot_bytes = 0;
  bool ok = false;
  std::string error;
};

/// Per-layer decomposition of one Fit, re-issued through each public
/// function on a fresh training set.
struct FitLedger {
  double encoder_s = 0, profile_s = 0, confair_weights_s = 0;
  double group_models_s = 0, learner_s = 0, monitor_kde_s = 0;
  double sum() const {
    return encoder_s + profile_s + confair_weights_s + group_models_s +
           learner_s + monitor_kde_s;
  }
};

struct RolloutOutcome {
  std::vector<RolloutRecord> records;
  std::vector<FitLedger> ledgers;  // traced: [CONFAIR, DIFFAIR]
  /// Every snapshot version the target served, for deferred checks.
  std::map<uint64_t, SnapshotPtr> versions;
  uint64_t kde_hits = 0, kde_misses = 0;
  bool ok = true;
  std::string error;
};

/// Runs `pairs` CONFAIR+DIFFAIR rollout pairs back to back.
void RunRollouts(Fixture* fx, size_t pairs, RolloutOutcome* out);

/// Checks deferred scores against the snapshots the run served.
uint64_t CheckDeferred(const Fixture& fx,
                       const std::vector<DeferredCheck>& deferred,
                       const std::map<uint64_t, SnapshotPtr>& versions,
                       uint64_t* unknown_versions);

// ------------------------------------------------------------ ledger

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Traced-run per-layer numbers for the request path, re-issued through
/// each layer's public function with batches of `mean_batch` rows.
void ScoringLedger(Fixture* fx, double mean_batch, std::vector<Metric>* out);
/// Wire codec, loopback frame RTT and per-RPC split (remote workload).
void WireLedger(Fixture* fx, std::vector<Metric>* out);
/// One Fit decomposed through the public functions Fit calls.
FitLedger DecomposeFit(const Dataset& train, fairdrift::Method method);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
