#include "serve/server_stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "serve/audit/auditor.h"

namespace fairdrift {

namespace {

/// Smoothing factor of the batch-latency EWMA: ~the last 10 batches
/// dominate, so the admission cost signal tracks load shifts quickly
/// without flapping on one slow batch.
constexpr double kEwmaAlpha = 0.2;

double BitsToDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

uint64_t DoubleToBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// The integer row count a view's mean_batch_size was derived from. A
/// wire view's mean is untrusted, so it is clamped before the cast
/// (an out-of-range double-to-integer conversion is undefined).
uint64_t BatchedRows(const ServerStats::View& view) {
  double rows =
      view.mean_batch_size * static_cast<double>(view.batches) + 0.5;
  if (!(rows >= 1.0)) return 0;
  if (rows >= 0x1p64) return std::numeric_limits<uint64_t>::max();
  return static_cast<uint64_t>(rows);
}

/// Adds `src` into `dst` at `buckets` entries: a `dst` of another length
/// restarts from zeros, and a `src` of another length is skipped.
void FoldHistogram(std::vector<uint64_t>* dst,
                   const std::vector<uint64_t>& src, size_t buckets) {
  if (dst->size() != buckets) dst->assign(buckets, 0);
  (void)ServerStats::MergeHistogramInto(dst, src);
}

}  // namespace

const char* ServerStats::StageName(size_t stage) {
  switch (stage) {
    case 0: return "queue_wait";
    case 1: return "batch_assemble";
    case 2: return "score";
    case 3: return "audit_fold";
  }
  return "unknown";
}

size_t ServerStats::LatencyBucket(std::chrono::nanoseconds latency) {
  int64_t ns = latency.count();
  if (ns < 1) ns = 1;
  double idx = std::log2(static_cast<double>(ns)) * 4.0;
  if (idx < 0.0) idx = 0.0;
  return std::min(kLatencyBuckets - 1, static_cast<size_t>(idx));
}

double ServerStats::BucketLatencyUs(size_t bucket) {
  // Inverse of LatencyBucket at the bucket's geometric midpoint.
  return std::exp2((static_cast<double>(bucket) + 0.5) / 4.0) * 1e-3;
}

void ServerStats::RecordCompletion(std::chrono::nanoseconds latency) {
  completed_.fetch_add(1, rel());
  latency_hist_[LatencyBucket(latency)].fetch_add(1, rel());
}

void ServerStats::RecordBatch(size_t batch_size) {
  if (batch_size == 0) return;
  batches_.fetch_add(1, rel());
  batched_requests_.fetch_add(batch_size, rel());
  size_t bucket = 0;
  while ((size_t{1} << (bucket + 1)) <= batch_size &&
         bucket + 1 < kBatchBuckets) {
    ++bucket;
  }
  batch_hist_[bucket].fetch_add(1, rel());
}

void ServerStats::RecordBatch(size_t batch_size,
                              std::chrono::nanoseconds latency) {
  RecordBatch(batch_size);
  double sample = static_cast<double>(std::max<int64_t>(latency.count(), 1));
  uint64_t expected = ewma_batch_ns_bits_.load(rel());
  for (;;) {
    double updated = expected == 0
                         ? sample
                         : BitsToDouble(expected) +
                               kEwmaAlpha * (sample - BitsToDouble(expected));
    if (ewma_batch_ns_bits_.compare_exchange_weak(
            expected, DoubleToBits(updated), rel(), rel())) {
      return;
    }
  }
}

void ServerStats::RecordDensity(uint64_t checked, uint64_t outliers) {
  if (checked == 0) return;
  density_checked_.fetch_add(checked, rel());
  density_outliers_.fetch_add(outliers, rel());
  double sample =
      static_cast<double>(outliers) / static_cast<double>(checked);
  uint64_t expected = ewma_outlier_rate_bits_.load(rel());
  for (;;) {
    double updated = expected == ~uint64_t{0}
                         ? sample
                         : BitsToDouble(expected) +
                               kEwmaAlpha * (sample - BitsToDouble(expected));
    if (ewma_outlier_rate_bits_.compare_exchange_weak(
            expected, DoubleToBits(updated), rel(), rel())) {
      return;
    }
  }
}

void ServerStats::RecordStageLatency(size_t stage,
                                     std::chrono::nanoseconds latency) {
  if (stage >= kServeStages) return;
  stage_hist_[stage][LatencyBucket(latency)].fetch_add(1, rel());
}

void ServerStats::RecordAuditFold(const AuditFoldOutcome& outcome) {
  if (outcome.windows == 0) return;
  audit_windows_.fetch_add(outcome.windows, rel());
  audit_breaches_.fetch_add(outcome.breaches, rel());
  audit_alerts_raised_.fetch_add(outcome.alerts_raised, rel());
  audit_alert_active_.store(outcome.alert_active ? 1 : 0, rel());
  if (outcome.has_metrics) {
    audit_last_di_star_bits_.store(DoubleToBits(outcome.di_star), rel());
    audit_last_spd_bits_.store(DoubleToBits(outcome.spd), rel());
  }
}

double ServerStats::EwmaOutlierRate() const {
  uint64_t bits = ewma_outlier_rate_bits_.load(rel());
  return bits == ~uint64_t{0} ? 0.0 : BitsToDouble(bits);
}

double ServerStats::PercentileUsFromHist(const std::vector<uint64_t>& hist,
                                         double q) {
  uint64_t total = 0;
  for (uint64_t c : hist) total += c;
  if (total == 0) return 0.0;
  uint64_t target =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (target == 0) target = 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < hist.size(); ++b) {
    seen += hist[b];
    if (seen >= target) return BucketLatencyUs(b);
  }
  return BucketLatencyUs(hist.empty() ? 0 : hist.size() - 1);
}

double ServerStats::EwmaBatchLatencyNs() const {
  uint64_t bits = ewma_batch_ns_bits_.load(rel());
  return bits == 0 ? 0.0 : BitsToDouble(bits);
}

ServerStats::View ServerStats::Snapshot() const {
  View view;
  view.submitted = submitted_.load(rel());
  view.completed = completed_.load(rel());
  view.shed_admission = shed_admission_.load(rel());
  view.shed_deadline = shed_deadline_.load(rel());
  view.invalid = invalid_.load(rel());
  view.batches = batches_.load(rel());
  view.snapshot_swaps = snapshot_swaps_.load(rel());
  uint64_t batched = batched_requests_.load(rel());
  view.mean_batch_size =
      view.batches == 0
          ? 0.0
          : static_cast<double>(batched) / static_cast<double>(view.batches);

  view.latency_hist.resize(kLatencyBuckets);
  for (size_t b = 0; b < kLatencyBuckets; ++b) {
    view.latency_hist[b] = latency_hist_[b].load(rel());
  }
  view.p50_latency_us = PercentileUsFromHist(view.latency_hist, 0.50);
  view.p95_latency_us = PercentileUsFromHist(view.latency_hist, 0.95);
  view.p99_latency_us = PercentileUsFromHist(view.latency_hist, 0.99);
  view.ewma_batch_latency_us = EwmaBatchLatencyNs() * 1e-3;
  view.density_checked = density_checked_.load(rel());
  view.density_outliers = density_outliers_.load(rel());
  view.ewma_outlier_rate = EwmaOutlierRate();
  view.audit_windows = audit_windows_.load(rel());
  view.audit_breaches = audit_breaches_.load(rel());
  view.audit_alerts_raised = audit_alerts_raised_.load(rel());
  view.audit_alert_active = audit_alert_active_.load(rel()) != 0;
  uint64_t di_bits = audit_last_di_star_bits_.load(rel());
  if (di_bits != ~uint64_t{0}) {
    view.audit_has_metrics = true;
    view.audit_last_di_star = BitsToDouble(di_bits);
    view.audit_last_spd = BitsToDouble(audit_last_spd_bits_.load(rel()));
  }

  view.batch_size_hist.resize(kBatchBuckets);
  for (size_t b = 0; b < kBatchBuckets; ++b) {
    view.batch_size_hist[b] = batch_hist_[b].load(rel());
  }

  view.trace_sampled = trace_sampled_.load(rel());
  view.trace_append_failures = trace_append_failures_.load(rel());
  for (size_t s = 0; s < kServeStages; ++s) {
    view.stage_hist[s].resize(kLatencyBuckets);
    for (size_t b = 0; b < kLatencyBuckets; ++b) {
      view.stage_hist[s][b] = stage_hist_[s][b].load(rel());
    }
    view.stage_p99_us[s] = PercentileUsFromHist(view.stage_hist[s], 0.99);
  }
  return view;
}

Status ServerStats::MergeHistogramInto(std::vector<uint64_t>* dst,
                                       const std::vector<uint64_t>& src) {
  if (dst == nullptr) {
    return Status::InvalidArgument("MergeHistogramInto: null destination");
  }
  if (dst->size() != src.size()) {
    return Status::InvalidArgument(
        "histogram bucket counts disagree (" + std::to_string(dst->size()) +
        " vs " + std::to_string(src.size()) +
        "); refusing an element-wise merge");
  }
  for (size_t b = 0; b < src.size(); ++b) (*dst)[b] += src[b];
  return Status::OK();
}

void ServerStats::View::MergeFrom(const View& other) {
  const uint64_t rows = BatchedRows(*this) + BatchedRows(other);
  submitted += other.submitted;
  completed += other.completed;
  shed_admission += other.shed_admission;
  shed_deadline += other.shed_deadline;
  invalid += other.invalid;
  batches += other.batches;
  snapshot_swaps += other.snapshot_swaps;
  density_checked += other.density_checked;
  density_outliers += other.density_outliers;
  audit_windows += other.audit_windows;
  audit_breaches += other.audit_breaches;
  audit_alerts_raised += other.audit_alerts_raised;
  trace_sampled += other.trace_sampled;
  trace_append_failures += other.trace_append_failures;
  mean_batch_size = batches == 0 ? 0.0
                                 : static_cast<double>(rows) /
                                       static_cast<double>(batches);

  ewma_batch_latency_us =
      std::max(ewma_batch_latency_us, other.ewma_batch_latency_us);
  ewma_outlier_rate = std::max(ewma_outlier_rate, other.ewma_outlier_rate);
  audit_alert_active = audit_alert_active || other.audit_alert_active;
  if (other.audit_has_metrics &&
      (!audit_has_metrics ||
       std::make_pair(other.audit_last_di_star, -other.audit_last_spd) <
           std::make_pair(audit_last_di_star, -audit_last_spd))) {
    audit_has_metrics = true;
    audit_last_di_star = other.audit_last_di_star;
    audit_last_spd = other.audit_last_spd;
  }

  FoldHistogram(&batch_size_hist, other.batch_size_hist, kBatchBuckets);
  FoldHistogram(&latency_hist, other.latency_hist, kLatencyBuckets);
  p50_latency_us = PercentileUsFromHist(latency_hist, 0.50);
  p95_latency_us = PercentileUsFromHist(latency_hist, 0.95);
  p99_latency_us = PercentileUsFromHist(latency_hist, 0.99);
  for (size_t s = 0; s < kServeStages; ++s) {
    FoldHistogram(&stage_hist[s], other.stage_hist[s], kLatencyBuckets);
    stage_p99_us[s] = PercentileUsFromHist(stage_hist[s], 0.99);
  }
}

}  // namespace fairdrift
