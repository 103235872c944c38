#include "serve/net/wire.h"

#include <utility>

namespace fairdrift {
namespace net {
namespace {

// Caps that bound a corrupted count field before it allocates.
constexpr uint64_t kMaxRowsPerBatch = 1u << 20;
constexpr uint64_t kMaxRowWidth = 1u << 16;
constexpr uint64_t kMaxHistBuckets = 1u << 16;
// Smallest encoded WireRowOutcome: code u8, an empty message (its u64
// length), then the ScoreResult's 54 bytes.
constexpr uint64_t kMinOutcomeBytes = 1 + 8 + 54;

}  // namespace

void SerializeScoreRequest(const WireScoreRequest& request, BinaryWriter* w) {
  w->WriteU64(request.width);
  w->WriteU64(request.deadline_ns);
  w->WriteDoubleVector(request.rows);
}

Result<WireScoreRequest> DeserializeScoreRequest(BinaryReader* r) {
  WireScoreRequest request;
  Result<uint64_t> width = r->ReadU64();
  if (!width.ok()) return width.status();
  request.width = width.value();
  Result<uint64_t> deadline = r->ReadU64();
  if (!deadline.ok()) return deadline.status();
  request.deadline_ns = deadline.value();
  Result<std::vector<double>> rows = r->ReadDoubleVector();
  if (!rows.ok()) return rows.status();
  request.rows = std::move(rows).value();
  if (request.width == 0 || request.width > kMaxRowWidth) {
    return Status::DataLoss("score request has an implausible row width");
  }
  if (request.rows.size() % request.width != 0 ||
      request.rows.size() / request.width > kMaxRowsPerBatch) {
    return Status::DataLoss(
        "score request rows are not a whole number of rows");
  }
  return request;
}

void SerializeRowOutcomes(const std::vector<WireRowOutcome>& outcomes,
                          BinaryWriter* w) {
  w->WriteU64(outcomes.size());
  for (const WireRowOutcome& outcome : outcomes) {
    w->WriteU8(static_cast<uint8_t>(outcome.code));
    w->WriteString(outcome.message);
    const ScoreResult& res = outcome.result;
    w->WriteDouble(res.probability);
    w->WriteI32(res.label);
    w->WriteI32(res.routed_group);
    w->WriteDouble(res.margin);
    w->WriteDouble(res.log_density);
    w->WriteU8(res.density_outlier ? 1 : 0);
    w->WriteU8(res.density_checked ? 1 : 0);
    w->WriteU64(res.snapshot_version);
    w->WriteI32(res.group);
    w->WriteU64(res.trace_id);
  }
}

Result<std::vector<WireRowOutcome>> DeserializeRowOutcomes(BinaryReader* r) {
  Result<uint64_t> count = r->ReadU64();
  if (!count.ok()) return count.status();
  if (count.value() > kMaxRowsPerBatch) {
    return Status::DataLoss("score reply claims an implausible row count");
  }
  // Divide instead of multiplying, as ReadDoubleVector does: a count
  // the remaining bytes cannot hold fails before it allocates.
  if (count.value() > r->remaining() / kMinOutcomeBytes) {
    return Status::DataLoss(
        "score reply truncated: its row count exceeds the payload");
  }
  std::vector<WireRowOutcome> outcomes;
  outcomes.reserve(count.value());
  for (uint64_t i = 0; i < count.value(); ++i) {
    WireRowOutcome outcome;
    Result<uint8_t> code = r->ReadU8();
    if (!code.ok()) return code.status();
    outcome.code = static_cast<StatusCode>(code.value());
    Result<std::string> message = r->ReadString();
    if (!message.ok()) return message.status();
    outcome.message = std::move(message).value();
    Result<double> probability = r->ReadDouble();
    if (!probability.ok()) return probability.status();
    outcome.result.probability = probability.value();
    Result<int32_t> label = r->ReadI32();
    if (!label.ok()) return label.status();
    outcome.result.label = label.value();
    Result<int32_t> routed = r->ReadI32();
    if (!routed.ok()) return routed.status();
    outcome.result.routed_group = routed.value();
    Result<double> margin = r->ReadDouble();
    if (!margin.ok()) return margin.status();
    outcome.result.margin = margin.value();
    Result<double> log_density = r->ReadDouble();
    if (!log_density.ok()) return log_density.status();
    outcome.result.log_density = log_density.value();
    Result<uint8_t> outlier = r->ReadU8();
    if (!outlier.ok()) return outlier.status();
    outcome.result.density_outlier = outlier.value() != 0;
    Result<uint8_t> checked = r->ReadU8();
    if (!checked.ok()) return checked.status();
    outcome.result.density_checked = checked.value() != 0;
    Result<uint64_t> version = r->ReadU64();
    if (!version.ok()) return version.status();
    outcome.result.snapshot_version = version.value();
    Result<int32_t> group = r->ReadI32();
    if (!group.ok()) return group.status();
    outcome.result.group = group.value();
    Result<uint64_t> trace_id = r->ReadU64();
    if (!trace_id.ok()) return trace_id.status();
    outcome.result.trace_id = trace_id.value();
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

void SerializeHealthProbe(const WireHealthProbe& probe, BinaryWriter* w) {
  w->WriteU64(probe.completed);
  w->WriteU64(probe.queue_depth);
  w->WriteU64(probe.inflight_batches);
  w->WriteU64(probe.snapshot_version);
}

Result<WireHealthProbe> DeserializeHealthProbe(BinaryReader* r) {
  WireHealthProbe probe;
  Result<uint64_t> completed = r->ReadU64();
  if (!completed.ok()) return completed.status();
  probe.completed = completed.value();
  Result<uint64_t> queue_depth = r->ReadU64();
  if (!queue_depth.ok()) return queue_depth.status();
  probe.queue_depth = queue_depth.value();
  Result<uint64_t> inflight = r->ReadU64();
  if (!inflight.ok()) return inflight.status();
  probe.inflight_batches = inflight.value();
  Result<uint64_t> version = r->ReadU64();
  if (!version.ok()) return version.status();
  probe.snapshot_version = version.value();
  return probe;
}

namespace {

void WriteU64Hist(const std::vector<uint64_t>& hist, BinaryWriter* w) {
  w->WriteU64(hist.size());
  for (uint64_t v : hist) w->WriteU64(v);
}

Result<std::vector<uint64_t>> ReadU64Hist(BinaryReader* r) {
  Result<uint64_t> count = r->ReadU64();
  if (!count.ok()) return count.status();
  if (count.value() > kMaxHistBuckets) {
    return Status::DataLoss("stats view claims an implausible bucket count");
  }
  // As ReadDoubleVector does: a count the remaining bytes cannot hold
  // fails before it allocates.
  if (count.value() > r->remaining() / 8) {
    return Status::DataLoss(
        "stats view truncated: a bucket count exceeds the payload");
  }
  std::vector<uint64_t> hist;
  hist.reserve(count.value());
  for (uint64_t i = 0; i < count.value(); ++i) {
    Result<uint64_t> v = r->ReadU64();
    if (!v.ok()) return v.status();
    hist.push_back(v.value());
  }
  return hist;
}

}  // namespace

void SerializeStatsView(const ServerStats::View& view, BinaryWriter* w) {
  w->WriteU64(view.submitted);
  w->WriteU64(view.completed);
  w->WriteU64(view.shed_admission);
  w->WriteU64(view.shed_deadline);
  w->WriteU64(view.invalid);
  w->WriteU64(view.batches);
  w->WriteU64(view.snapshot_swaps);
  w->WriteDouble(view.mean_batch_size);
  w->WriteDouble(view.p50_latency_us);
  w->WriteDouble(view.p95_latency_us);
  w->WriteDouble(view.p99_latency_us);
  w->WriteDouble(view.ewma_batch_latency_us);
  w->WriteU64(view.density_checked);
  w->WriteU64(view.density_outliers);
  w->WriteDouble(view.ewma_outlier_rate);
  w->WriteU64(view.audit_windows);
  w->WriteU64(view.audit_breaches);
  w->WriteU64(view.audit_alerts_raised);
  w->WriteU8(view.audit_alert_active ? 1 : 0);
  w->WriteU8(view.audit_has_metrics ? 1 : 0);
  w->WriteDouble(view.audit_last_di_star);
  w->WriteDouble(view.audit_last_spd);
  WriteU64Hist(view.batch_size_hist, w);
  WriteU64Hist(view.latency_hist, w);
  w->WriteU64(view.trace_sampled);
  w->WriteU64(view.trace_append_failures);
  for (size_t s = 0; s < ServerStats::kServeStages; ++s) {
    w->WriteDouble(view.stage_p99_us[s]);
  }
  for (size_t s = 0; s < ServerStats::kServeStages; ++s) {
    WriteU64Hist(view.stage_hist[s], w);
  }
}

Result<ServerStats::View> DeserializeStatsView(BinaryReader* r) {
  ServerStats::View view;
  auto read_u64 = [&](uint64_t* dst) -> Status {
    Result<uint64_t> v = r->ReadU64();
    if (!v.ok()) return v.status();
    *dst = v.value();
    return Status::OK();
  };
  auto read_double = [&](double* dst) -> Status {
    Result<double> v = r->ReadDouble();
    if (!v.ok()) return v.status();
    *dst = v.value();
    return Status::OK();
  };
  auto read_bool = [&](bool* dst) -> Status {
    Result<uint8_t> v = r->ReadU8();
    if (!v.ok()) return v.status();
    *dst = v.value() != 0;
    return Status::OK();
  };
  FAIRDRIFT_RETURN_IF_ERROR(read_u64(&view.submitted));
  FAIRDRIFT_RETURN_IF_ERROR(read_u64(&view.completed));
  FAIRDRIFT_RETURN_IF_ERROR(read_u64(&view.shed_admission));
  FAIRDRIFT_RETURN_IF_ERROR(read_u64(&view.shed_deadline));
  FAIRDRIFT_RETURN_IF_ERROR(read_u64(&view.invalid));
  FAIRDRIFT_RETURN_IF_ERROR(read_u64(&view.batches));
  FAIRDRIFT_RETURN_IF_ERROR(read_u64(&view.snapshot_swaps));
  FAIRDRIFT_RETURN_IF_ERROR(read_double(&view.mean_batch_size));
  FAIRDRIFT_RETURN_IF_ERROR(read_double(&view.p50_latency_us));
  FAIRDRIFT_RETURN_IF_ERROR(read_double(&view.p95_latency_us));
  FAIRDRIFT_RETURN_IF_ERROR(read_double(&view.p99_latency_us));
  FAIRDRIFT_RETURN_IF_ERROR(read_double(&view.ewma_batch_latency_us));
  FAIRDRIFT_RETURN_IF_ERROR(read_u64(&view.density_checked));
  FAIRDRIFT_RETURN_IF_ERROR(read_u64(&view.density_outliers));
  FAIRDRIFT_RETURN_IF_ERROR(read_double(&view.ewma_outlier_rate));
  FAIRDRIFT_RETURN_IF_ERROR(read_u64(&view.audit_windows));
  FAIRDRIFT_RETURN_IF_ERROR(read_u64(&view.audit_breaches));
  FAIRDRIFT_RETURN_IF_ERROR(read_u64(&view.audit_alerts_raised));
  FAIRDRIFT_RETURN_IF_ERROR(read_bool(&view.audit_alert_active));
  FAIRDRIFT_RETURN_IF_ERROR(read_bool(&view.audit_has_metrics));
  FAIRDRIFT_RETURN_IF_ERROR(read_double(&view.audit_last_di_star));
  FAIRDRIFT_RETURN_IF_ERROR(read_double(&view.audit_last_spd));
  Result<std::vector<uint64_t>> batch_hist = ReadU64Hist(r);
  if (!batch_hist.ok()) return batch_hist.status();
  view.batch_size_hist = std::move(batch_hist).value();
  Result<std::vector<uint64_t>> latency_hist = ReadU64Hist(r);
  if (!latency_hist.ok()) return latency_hist.status();
  view.latency_hist = std::move(latency_hist).value();
  FAIRDRIFT_RETURN_IF_ERROR(read_u64(&view.trace_sampled));
  FAIRDRIFT_RETURN_IF_ERROR(read_u64(&view.trace_append_failures));
  for (size_t s = 0; s < ServerStats::kServeStages; ++s) {
    FAIRDRIFT_RETURN_IF_ERROR(read_double(&view.stage_p99_us[s]));
  }
  for (size_t s = 0; s < ServerStats::kServeStages; ++s) {
    Result<std::vector<uint64_t>> stage_hist = ReadU64Hist(r);
    if (!stage_hist.ok()) return stage_hist.status();
    view.stage_hist[s] = std::move(stage_hist).value();
  }
  return view;
}

}  // namespace net
}  // namespace fairdrift
