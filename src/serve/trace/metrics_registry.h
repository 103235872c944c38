// Metrics exposition: Prometheus-style text for the serving tier.
//
// MetricsEmitter writes the Prometheus text format (one `# HELP`/`# TYPE`
// per family, `name{labels} value` lines) sample by sample into a
// string. There is no registry of instruments: every scrape renders
// from state that already aggregates itself. A shard daemon's kMetrics
// reply is EmitStatsViewMetrics over its server's ServerStats::View,
// then its wire counters and gauges; the router's is the same call over
// its fleet-merged view (View::MergeFrom), then its routing counters.
//
// Histograms are exposed as quantile-labeled gauges derived via
// ServerStats::PercentileUsFromHist rather than 256 cumulative buckets.
// Because the daemons and the router both go through
// EmitStatsViewMetrics, and MergeFrom adds every counter, a router
// scrape equals the sum of its daemons' scrapes counter family by
// counter family.

#ifndef FAIRDRIFT_SERVE_TRACE_METRICS_REGISTRY_H_
#define FAIRDRIFT_SERVE_TRACE_METRICS_REGISTRY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/server_stats.h"

namespace fairdrift {

/// Builds exposition text sample by sample into a caller-owned string.
class MetricsEmitter {
 public:
  explicit MetricsEmitter(std::string* out) : out_(out) {}

  /// One counter sample. `labels` is the rendered label body without
  /// braces (e.g. "stage=\"score\""), empty for none. HELP/TYPE are
  /// emitted once per family, on first sight.
  void Counter(const std::string& name, const std::string& help,
               uint64_t value, const std::string& labels = "");

  /// One gauge sample (%.17g — round-trips doubles).
  void Gauge(const std::string& name, const std::string& help, double value,
             const std::string& labels = "");

 private:
  void Header(const std::string& name, const std::string& help,
              const char* type);
  void Line(const std::string& name, const std::string& labels,
            const std::string& value);

  std::string* out_;
  std::vector<std::string> seen_families_;
};

/// Emits the standard fairdrift_* family set of one server-stats view.
/// Shard daemons pass their own view; the router passes the
/// fleet-merged view — counter families then sum exactly across tiers,
/// histogram-derived quantiles re-derive from the merged buckets.
void EmitStatsViewMetrics(const ServerStats::View& view, MetricsEmitter* out);

}  // namespace fairdrift

#endif  // FAIRDRIFT_SERVE_TRACE_METRICS_REGISTRY_H_
