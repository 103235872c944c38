// ServerStats: the scoring server's observable health block.
//
// Counters and histograms are plain atomics — recording from many client
// and worker threads never takes a lock. Latency lands in a log-scale
// histogram (4 buckets per octave of nanoseconds, ≤ ~19% quantile error)
// from which p50/p95/p99 are derived; batch sizes land in power-of-two
// buckets so the batching behavior (did coalescing actually happen?) is
// visible, not just the mean. View::MergeFrom is the one rule set that
// combines views: both fleets and the router fold their shards with it.

#ifndef FAIRDRIFT_SERVE_SERVER_STATS_H_
#define FAIRDRIFT_SERVE_SERVER_STATS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "util/status.h"

namespace fairdrift {

struct AuditFoldOutcome;  // serve/audit/auditor.h

/// Thread-safe statistics sink for one ScoringServer.
class ServerStats {
 public:
  /// 4 buckets per factor-of-2 in nanoseconds; 256 buckets span 1ns to
  /// ~2^64 ns, far beyond any realistic request latency.
  static constexpr size_t kLatencyBuckets = 256;
  /// Power-of-two batch-size buckets: bucket b holds sizes in
  /// [2^b, 2^(b+1)).
  static constexpr size_t kBatchBuckets = 16;
  /// Pipeline stages with their own latency histogram (trace-stamped
  /// durations): 0 queue_wait (enqueue→dequeue), 1 batch_assemble
  /// (dequeue→scratch staged), 2 score (staged→scored), 3 audit_fold
  /// (scored→stats/audit folded). Recorded only for trace-sampled
  /// requests, so each is an unbiased (content-hash) sample of the
  /// stage's true distribution at ~1/modulus the recording cost.
  static constexpr size_t kServeStages = 4;

  /// Stable stage key for exposition ("queue_wait", ...).
  static const char* StageName(size_t stage);

  /// Row counters: every admitted, shed, or invalid row counts once.
  void RecordSubmitted(uint64_t rows = 1) {
    submitted_.fetch_add(rows, rel());
  }
  void RecordAdmissionShed(uint64_t rows = 1) {
    shed_admission_.fetch_add(rows, rel());
  }
  void RecordDeadlineShed(uint64_t rows = 1) {
    shed_deadline_.fetch_add(rows, rel());
  }
  void RecordInvalidRequest(uint64_t rows = 1) {
    invalid_.fetch_add(rows, rel());
  }
  void RecordSnapshotSwap() { snapshot_swaps_.fetch_add(1, rel()); }

  /// One completed request with its submit→fulfill latency.
  void RecordCompletion(std::chrono::nanoseconds latency);

  /// One scored batch of `batch_size` rows.
  void RecordBatch(size_t batch_size);

  /// One scored batch plus its wall-clock scoring latency; feeds the
  /// EWMA the cost-aware admission policy consults.
  void RecordBatch(size_t batch_size, std::chrono::nanoseconds latency);

  /// Exponentially weighted moving average of batch scoring latency in
  /// nanoseconds; 0 until the first batch completes. Lock-free (a CAS
  /// loop over the double's bit pattern) — safe to read on the Submit
  /// hot path.
  double EwmaBatchLatencyNs() const;

  /// Density-monitor outcome of one scored batch: `checked` rows were
  /// evaluated against the floor (all rows in exact/bounded modes, the
  /// hash sample in sampled mode), `outliers` of them fell below it.
  /// No-op when checked == 0 — an unsampled batch must not decay the
  /// outlier-rate EWMA toward zero.
  void RecordDensity(uint64_t checked, uint64_t outliers);

  /// EWMA of the per-batch outlier fraction; 0 until the first checked
  /// batch. Under sampled monitoring this is the bounded-staleness drift
  /// signal: fresh to within ~sample_modulus * batch-size requests.
  double EwmaOutlierRate() const;

  /// What one batch's fairness-audit fold produced (serve/audit/): window
  /// completions, breaches, alert transitions, and the latest completed
  /// window's headline metrics. No-op when the fold completed no window.
  void RecordAuditFold(const AuditFoldOutcome& outcome);

  /// One trace-sampled request's time in pipeline stage `stage`
  /// (< kServeStages).
  void RecordStageLatency(size_t stage, std::chrono::nanoseconds latency);

  /// Rows selected by the trace sampler at admission.
  void RecordTraceSampled(uint64_t rows = 1) {
    trace_sampled_.fetch_add(rows, rel());
  }

  /// One sampled span record lost to a failed trace-log append. The
  /// chain stays valid and scoring is unaffected; this counter is the
  /// only evidence.
  void RecordTraceAppendFailure() {
    trace_append_failures_.fetch_add(1, rel());
  }

  /// Consistent-enough copy of all counters plus derived percentiles.
  /// (Counters are read individually; a view taken while traffic is in
  /// flight may be mid-request, which is fine for monitoring.)
  struct View {
    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t shed_admission = 0;
    uint64_t shed_deadline = 0;
    uint64_t invalid = 0;
    uint64_t batches = 0;
    uint64_t snapshot_swaps = 0;
    double mean_batch_size = 0.0;
    double p50_latency_us = 0.0;
    double p95_latency_us = 0.0;
    double p99_latency_us = 0.0;
    /// EWMA of batch scoring latency (the admission cost signal).
    double ewma_batch_latency_us = 0.0;
    /// Rows the density monitor actually evaluated (= completed rows in
    /// exact/bounded modes; the hash-selected subset in sampled mode).
    uint64_t density_checked = 0;
    /// Checked rows that fell below the density floor.
    uint64_t density_outliers = 0;
    /// EWMA of the per-batch outlier fraction (0 until a checked batch).
    double ewma_outlier_rate = 0.0;
    /// Fairness-audit windows this server completed (0 when unaudited).
    uint64_t audit_windows = 0;
    /// Completed windows whose metrics breached the alert policy.
    uint64_t audit_breaches = 0;
    /// Alert raise transitions (hysteresis-filtered, not per-window).
    uint64_t audit_alerts_raised = 0;
    /// True while this server's fairness alert is currently raised.
    bool audit_alert_active = false;
    /// True once at least one completed window had both groups present —
    /// only then do the two metrics below mean anything.
    bool audit_has_metrics = false;
    /// Latest completed window's symmetric disparate impact min(DI, 1/DI).
    double audit_last_di_star = 1.0;
    /// Latest completed window's statistical parity difference.
    double audit_last_spd = 0.0;
    /// Scored-batch counts per power-of-two batch-size (rows) bucket
    /// (kBatchBuckets entries).
    std::vector<uint64_t> batch_size_hist;
    /// Completed-request counts per log-scale latency bucket
    /// (kLatencyBuckets entries). Bucket counts from several servers add
    /// element-wise, which is how MergeFrom derives fleet-wide
    /// percentiles instead of averaging per-shard ones.
    std::vector<uint64_t> latency_hist;
    /// Requests the content-hash trace sampler selected at admission.
    uint64_t trace_sampled = 0;
    /// Sampled span records dropped by a failed trace-log append.
    uint64_t trace_append_failures = 0;
    /// Per-stage p99 in µs, derived from stage_hist (0 = no samples).
    std::array<double, kServeStages> stage_p99_us{};
    /// Per-stage latency histograms of trace-sampled requests
    /// (kServeStages vectors of kLatencyBuckets buckets; same bucketing
    /// and element-wise merge rules as latency_hist) — this is how a
    /// router-merged p99 decomposes by pipeline stage.
    std::array<std::vector<uint64_t>, kServeStages> stage_hist;

    /// Folds `other` into this view with one rule per field, so a fold
    /// of several views gives the same view in any order:
    ///  - the 14 u64 counters add;
    ///  - batch_size_hist, latency_hist and stage_hist add bucket-wise
    ///    and always come out with this build's bucket counts; a
    ///    histogram of another length (a view from another build) is
    ///    skipped wherever it comes in the fold, while its view's
    ///    counters still add;
    ///  - mean_batch_size is Σ batched rows / Σ batches, each view's
    ///    row count recovered as the integer its mean was derived from;
    ///  - the latency percentiles and stage_p99_us re-derive from the
    ///    merged histograms;
    ///  - both EWMAs keep the max (the worst server);
    ///  - audit_alert_active and audit_has_metrics OR;
    ///  - audit_last_di_star/spd keep the least-fair pair among views
    ///    with metrics: the lowest DI*, ties going to the higher SPD
    ///    (an absolute selection-rate gap, so higher is less fair).
    void MergeFrom(const View& other);
  };

  View Snapshot() const;

  /// Geometric representative latency of a log-scale bucket, in
  /// microseconds (public so merged histograms can be re-quantiled).
  static double BucketLatencyUs(size_t bucket);

  /// The `q`-quantile (0..1) of a latency histogram in microseconds —
  /// the same derivation Snapshot() applies to a single server's
  /// histogram, reusable on an element-wise sum of several.
  static double PercentileUsFromHist(const std::vector<uint64_t>& hist,
                                     double q);

  /// Element-wise accumulates `src` into `dst`. Bucket counts must
  /// agree: in-process views always do, but a wire-deserialized view
  /// from a different build (or a corrupted frame that still
  /// checksummed) might not — kInvalidArgument instead of silent
  /// misalignment or an out-of-bounds walk.
  static Status MergeHistogramInto(std::vector<uint64_t>* dst,
                                   const std::vector<uint64_t>& src);

 private:
  static std::memory_order rel() { return std::memory_order_relaxed; }
  static size_t LatencyBucket(std::chrono::nanoseconds latency);

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> shed_admission_{0};
  std::atomic<uint64_t> shed_deadline_{0};
  std::atomic<uint64_t> invalid_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batched_requests_{0};
  std::atomic<uint64_t> snapshot_swaps_{0};
  /// IEEE-754 bits of the EWMA; 0 = no sample yet.
  std::atomic<uint64_t> ewma_batch_ns_bits_{0};
  std::atomic<uint64_t> density_checked_{0};
  std::atomic<uint64_t> density_outliers_{0};
  /// IEEE-754 bits of the outlier-rate EWMA. Unlike latency, 0.0 is a
  /// legitimate rate, so "no sample yet" is the all-ones sentinel (a NaN
  /// pattern no CAS update ever stores), not 0.
  std::atomic<uint64_t> ewma_outlier_rate_bits_{~uint64_t{0}};
  std::atomic<uint64_t> audit_windows_{0};
  std::atomic<uint64_t> audit_breaches_{0};
  std::atomic<uint64_t> audit_alerts_raised_{0};
  std::atomic<uint8_t> audit_alert_active_{0};
  /// Latest window's DI*/SPD as IEEE-754 bits; all-ones = no metric-
  /// bearing window yet (same sentinel convention as the rate EWMA).
  std::atomic<uint64_t> audit_last_di_star_bits_{~uint64_t{0}};
  std::atomic<uint64_t> audit_last_spd_bits_{~uint64_t{0}};
  std::array<std::atomic<uint64_t>, kLatencyBuckets> latency_hist_{};
  std::array<std::atomic<uint64_t>, kBatchBuckets> batch_hist_{};
  std::atomic<uint64_t> trace_sampled_{0};
  std::atomic<uint64_t> trace_append_failures_{0};
  std::array<std::array<std::atomic<uint64_t>, kLatencyBuckets>, kServeStages>
      stage_hist_{};
};

}  // namespace fairdrift

#endif  // FAIRDRIFT_SERVE_SERVER_STATS_H_
