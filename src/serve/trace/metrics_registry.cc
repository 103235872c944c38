#include "serve/trace/metrics_registry.h"

#include <algorithm>

#include "util/string_util.h"

namespace fairdrift {

void MetricsEmitter::Header(const std::string& name, const std::string& help,
                            const char* type) {
  if (std::find(seen_families_.begin(), seen_families_.end(), name) !=
      seen_families_.end()) {
    return;
  }
  seen_families_.push_back(name);
  out_->append("# HELP ");
  out_->append(name);
  out_->push_back(' ');
  out_->append(help);
  out_->append("\n# TYPE ");
  out_->append(name);
  out_->push_back(' ');
  out_->append(type);
  out_->push_back('\n');
}

void MetricsEmitter::Line(const std::string& name, const std::string& labels,
                          const std::string& value) {
  out_->append(name);
  if (!labels.empty()) {
    out_->push_back('{');
    out_->append(labels);
    out_->push_back('}');
  }
  out_->push_back(' ');
  out_->append(value);
  out_->push_back('\n');
}

void MetricsEmitter::Counter(const std::string& name, const std::string& help,
                             uint64_t value, const std::string& labels) {
  Header(name, help, "counter");
  Line(name, labels, std::to_string(value));
}

void MetricsEmitter::Gauge(const std::string& name, const std::string& help,
                           double value, const std::string& labels) {
  Header(name, help, "gauge");
  Line(name, labels, StrFormat("%.17g", value));
}

void EmitStatsViewMetrics(const ServerStats::View& view, MetricsEmitter* out) {
  out->Counter("fairdrift_submitted_total", "Requests admitted and enqueued",
               view.submitted);
  out->Counter("fairdrift_completed_total", "Requests scored to completion",
               view.completed);
  out->Counter("fairdrift_shed_admission_total",
               "Requests shed by admission control", view.shed_admission);
  out->Counter("fairdrift_shed_deadline_total",
               "Requests shed on an expired deadline", view.shed_deadline);
  out->Counter("fairdrift_invalid_total", "Requests rejected as malformed",
               view.invalid);
  out->Counter("fairdrift_batches_total", "Micro-batches scored",
               view.batches);
  out->Counter("fairdrift_snapshot_swaps_total",
               "Model snapshot hot swaps published", view.snapshot_swaps);
  out->Counter("fairdrift_density_checked_total",
               "Rows evaluated by the density drift monitor",
               view.density_checked);
  out->Counter("fairdrift_density_outliers_total",
               "Checked rows below the density floor",
               view.density_outliers);
  out->Counter("fairdrift_audit_windows_total",
               "Fairness audit windows completed", view.audit_windows);
  out->Counter("fairdrift_audit_breaches_total",
               "Audit windows breaching the alert policy",
               view.audit_breaches);
  out->Counter("fairdrift_audit_alerts_raised_total",
               "Fairness alert raise transitions", view.audit_alerts_raised);
  out->Counter("fairdrift_trace_sampled_total",
               "Requests selected by the content-hash trace sampler",
               view.trace_sampled);
  out->Counter("fairdrift_trace_append_failures_total",
               "Sampled span records lost to failed trace-log appends",
               view.trace_append_failures);
  out->Gauge("fairdrift_audit_alert_active",
             "1 while the fairness alert is raised",
             view.audit_alert_active ? 1.0 : 0.0);
  out->Gauge("fairdrift_mean_batch_size", "Mean scored micro-batch size",
             view.mean_batch_size);
  out->Gauge("fairdrift_ewma_batch_latency_us",
             "EWMA of batch scoring latency (admission cost signal)",
             view.ewma_batch_latency_us);
  out->Gauge("fairdrift_ewma_outlier_rate",
             "EWMA of the per-batch density outlier fraction",
             view.ewma_outlier_rate);
  const char* kLatencyHelp =
      "Request submit-to-fulfill latency quantiles (log-hist derived)";
  out->Gauge("fairdrift_latency_us", kLatencyHelp, view.p50_latency_us,
             "quantile=\"0.5\"");
  out->Gauge("fairdrift_latency_us", kLatencyHelp, view.p95_latency_us,
             "quantile=\"0.95\"");
  out->Gauge("fairdrift_latency_us", kLatencyHelp, view.p99_latency_us,
             "quantile=\"0.99\"");
  const char* kStageHelp =
      "Per-pipeline-stage latency of trace-sampled requests";
  for (size_t s = 0; s < ServerStats::kServeStages; ++s) {
    std::string labels =
        StrFormat("stage=\"%s\",quantile=\"0.99\"", ServerStats::StageName(s));
    out->Gauge("fairdrift_stage_latency_us", kStageHelp,
               ServerStats::PercentileUsFromHist(view.stage_hist[s], 0.99),
               labels);
  }
}

}  // namespace fairdrift
