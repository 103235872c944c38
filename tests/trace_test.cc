// Tests for src/serve/trace/: trace identity minting, span slots, the
// chained JSONL trace log (including size rotation shared with the
// audit log), the metrics exposition, and the traced scoring pipeline.
//
// The load-bearing contract is determinism of the sampled set: a row is
// sampled by its content hash alone, so the same rows trace regardless
// of batch composition, worker counts, or shard assignment — pinned
// here by scoring one request population through deliberately different
// server shapes and demanding identical per-row trace ids.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/artifacts.h"
#include "core/deployment.h"
#include "serve/audit/audit_log.h"
#include "serve/audit/auditor.h"
#include "serve/server.h"
#include "serve/server_stats.h"
#include "serve/snapshot.h"
#include "serve/trace/metrics_registry.h"
#include "serve/trace/trace_context.h"
#include "serve/trace/trace_log.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "test_tmp.h"

namespace fairdrift {
namespace {

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
  Dataset train = MakeTrainingData(400, seed);
  Result<std::shared_ptr<const ModelSnapshot>> snapshot =
      BuildSnapshot(train, ServingSpec(Method::kNoIntervention));
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

// ------------------------------------------------------ trace identity

TEST(TraceContextTest, MintIsDeterministicInRowBytesAlone) {
  std::vector<double> row = {1.5, -2.25, 0.0, 2.0};
  TraceContext a = MintTraceContext(row.data(), row.size(), 1);
  TraceContext b = MintTraceContext(row.data(), row.size(), 1);
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_TRUE(a.sampled()) << "modulus 1 samples every row";
  EXPECT_NE(a.trace_id, 0u) << "sampled ids never collide with the "
                               "unsampled sentinel";

  // Modulus 0 also means sample-everything.
  EXPECT_EQ(MintTraceContext(row.data(), row.size(), 0).trace_id, a.trace_id);

  // Different content, different id.
  std::vector<double> other = {1.5, -2.25, 0.0, 1.0};
  EXPECT_NE(MintTraceContext(other.data(), other.size(), 1).trace_id,
            a.trace_id);
}

TEST(TraceContextTest, ModulusGatesTheSampledSetByContentHash) {
  std::vector<std::vector<double>> rows = MakeRequests(512, 7);
  size_t sampled = 0;
  for (const auto& row : rows) {
    TraceContext always = MintTraceContext(row.data(), row.size(), 1);
    TraceContext gated = MintTraceContext(row.data(), row.size(), 8);
    if (gated.sampled()) {
      ++sampled;
      EXPECT_EQ(gated.trace_id, always.trace_id)
          << "the id is the content hash regardless of modulus";
    } else {
      EXPECT_EQ(gated.trace_id, 0u);
    }
  }
  // 1-in-8 content-hash sampling of 512 gaussian rows: the exact count
  // is deterministic, but any hash-like function keeps it far from the
  // degenerate extremes.
  EXPECT_GT(sampled, 16u);
  EXPECT_LT(sampled, 256u);
}

TEST(TraceContextTest, SpanIdsChainFromTraceIdAndRole) {
  uint64_t t1 = 0x1234567890ABCDEFull;
  EXPECT_EQ(TraceSpanId(t1, "shard"), TraceSpanId(t1, "shard"));
  EXPECT_NE(TraceSpanId(t1, "shard"), TraceSpanId(t1, "router"));
  EXPECT_NE(TraceSpanId(t1, "shard"), TraceSpanId(t1 + 1, "shard"));
}

TEST(TraceContextTest, SpanSlotStampsByStage) {
  TraceSpanSlot slot;
  EXPECT_FALSE(slot.sampled());
  EXPECT_EQ(slot.stamp(TraceStage::kScore), 0u);
  slot.StampAt(TraceStage::kAdmit, 100);
  slot.StampAt(TraceStage::kScore, 250);
  EXPECT_EQ(slot.stamp(TraceStage::kAdmit), 100u);
  EXPECT_EQ(slot.stamp(TraceStage::kScore), 250u);
  EXPECT_EQ(slot.stamp(TraceStage::kEnqueue), 0u);
}

// One request population scored through deliberately different server
// shapes: the per-row trace ids must be identical everywhere, because
// the id is a content hash and never a function of batching, worker
// counts, or arrival order.
TEST(TraceContextTest, SampledSetInvariantAcrossServerShapes) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(11);
  ASSERT_NE(snapshot, nullptr);
  std::vector<std::vector<double>> rows = MakeRequests(96, 13);

  std::vector<uint64_t> expected;
  for (const auto& row : rows) {
    expected.push_back(MintTraceContext(row.data(), row.size(), 4).trace_id);
  }
  size_t expected_sampled = 0;
  for (uint64_t id : expected) expected_sampled += id != 0 ? 1 : 0;
  ASSERT_GT(expected_sampled, 0u) << "seed must sample at least one row";

  struct Shape {
    size_t max_batch;
    size_t workers;
  };
  for (const Shape& shape : {Shape{1, 0}, Shape{7, 2}, Shape{32, 4}}) {
    ThreadPool pool(shape.workers);
    ServerOptions options;
    options.batching.max_batch_size = shape.max_batch;
    options.pool = &pool;
    options.trace.enabled = true;
    options.trace.sample_modulus = 4;
    Result<std::unique_ptr<ScoringServer>> server =
        ScoringServer::Create(snapshot, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    for (size_t i = 0; i < rows.size(); ++i) {
      Result<ScoreResult> result = server.value()->ScoreSync(rows[i]);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result.value().trace_id, expected[i])
          << "row " << i << " under batch=" << shape.max_batch
          << " workers=" << shape.workers;
    }
    EXPECT_EQ(server.value()->stats().trace_sampled, expected_sampled);
  }
}

// ----------------------------------------------------------- trace log

TraceSpanSlot MakeStampedSlot(uint64_t trace_id, uint64_t parent,
                              uint64_t base_ns) {
  TraceSpanSlot slot;
  slot.context.trace_id = trace_id;
  slot.context.parent_span_id = parent;
  slot.StampAt(TraceStage::kAdmit, base_ns);
  slot.StampAt(TraceStage::kEnqueue, base_ns + 10);
  slot.StampAt(TraceStage::kDequeue, base_ns + 20);
  slot.StampAt(TraceStage::kScore, base_ns + 50);
  return slot;
}

TEST(TraceLogTest, FormatEmitsOnlyStampedStagesInCanonicalOrder) {
  TraceSpanSlot slot = MakeStampedSlot(0xABCDull, 0x1234ull, 1000);
  std::string rec = FormatTraceRecord(slot, "shard", 7);
  EXPECT_NE(rec.find("\"trace\":\"000000000000abcd\""), std::string::npos)
      << rec;
  EXPECT_NE(rec.find("\"parent\":\"0000000000001234\""), std::string::npos)
      << rec;
  char span_hex[32];
  std::snprintf(span_hex, sizeof(span_hex), "\"span\":\"%016llx\"",
                static_cast<unsigned long long>(TraceSpanId(0xABCD, "shard")));
  EXPECT_NE(rec.find(span_hex), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"role\":\"shard\""), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"snapshot\":7"), std::string::npos) << rec;
  // Unstamped stages are absent; stamped stages appear in stage order.
  EXPECT_EQ(rec.find("wire_recv"), std::string::npos) << rec;
  EXPECT_EQ(rec.find("wire_send"), std::string::npos) << rec;
  size_t admit = rec.find("\"admit\":1000");
  size_t enqueue = rec.find("\"enqueue\":1010");
  size_t score = rec.find("\"score\":1050");
  ASSERT_NE(admit, std::string::npos) << rec;
  ASSERT_NE(enqueue, std::string::npos) << rec;
  ASSERT_NE(score, std::string::npos) << rec;
  EXPECT_LT(admit, enqueue);
  EXPECT_LT(enqueue, score);
}

TEST(TraceLogTest, AppendedRecordsVerifyAsOneChain) {
  std::string path = TestTempPath("trace_basic.jsonl");
  Result<std::unique_ptr<TraceLog>> log = TraceLog::Open(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  for (uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(
        log.value()->Append(MakeStampedSlot(i, 0, i * 1000), "server", i).ok());
  }
  EXPECT_EQ(log.value()->records(), 5u);
  EXPECT_EQ(log.value()->rotated_segments(), 0u);

  Result<AuditVerifyReport> report = VerifyAuditLogChain(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().records, 5u);
  EXPECT_EQ(report.value().segments, 1u);
  EXPECT_EQ(report.value().chain, log.value()->chain());
  EXPECT_FALSE(report.value().torn_tail);
}

TEST(TraceLogTest, RotationThreadsTheChainAcrossSegments) {
  std::string path = TestTempPath("trace_rotate.jsonl");
  TraceLogOptions options;
  options.rotate_bytes = 512;  // a few records per segment
  uint64_t final_chain = 0;
  constexpr uint64_t kRecords = 40;
  {
    Result<std::unique_ptr<TraceLog>> log = TraceLog::Open(path, options);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    for (uint64_t i = 1; i <= kRecords; ++i) {
      ASSERT_TRUE(
          log.value()->Append(MakeStampedSlot(i, 0, i * 100), "shard", 1).ok());
    }
    EXPECT_EQ(log.value()->records(), kRecords);
    ASSERT_GT(log.value()->rotated_segments(), 1u)
        << "40 records at 512-byte rotation must rotate several times";
    final_chain = log.value()->chain();
  }

  std::vector<std::string> segments = AuditLogRotatedSegments(path);
  ASSERT_GT(segments.size(), 1u);
  EXPECT_EQ(segments[0], path + ".1");

  // The whole sequence verifies as one continuous chain...
  Result<AuditVerifyReport> chain = VerifyAuditLogChain(path);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  EXPECT_EQ(chain.value().records, kRecords);
  EXPECT_EQ(chain.value().segments, segments.size() + 1);
  EXPECT_EQ(chain.value().chain, final_chain);

  // ...and every record is readable in append order.
  AuditVerifyReport read_report;
  Result<std::vector<AuditLogEntry>> entries =
      ReadAuditLogChain(path, &read_report);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries.value().size(), kRecords);
  EXPECT_NE(entries.value().front().rec.find(
                "\"trace\":\"0000000000000001\""),
            std::string::npos);
  EXPECT_EQ(entries.value().back().chain, final_chain);

  // The first segment starts at the genesis seed so it verifies alone;
  // a later segment starts mid-chain and must NOT verify standalone —
  // a thief can't splice out history without breaking the walk.
  EXPECT_TRUE(VerifyAuditLog(segments[0]).ok());
  Result<AuditVerifyReport> spliced = VerifyAuditLog(segments[1]);
  ASSERT_FALSE(spliced.ok());
  EXPECT_EQ(spliced.status().code(), StatusCode::kDataLoss);
}

TEST(TraceLogTest, ReopenResumesChainAcrossRotatedSegments) {
  std::string path = TestTempPath("trace_reopen.jsonl");
  TraceLogOptions options;
  options.rotate_bytes = 512;
  uint64_t chain_before = 0;
  uint64_t records_before = 0;
  {
    Result<std::unique_ptr<TraceLog>> log = TraceLog::Open(path, options);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    for (uint64_t i = 1; i <= 20; ++i) {
      ASSERT_TRUE(
          log.value()->Append(MakeStampedSlot(i, 0, i), "shard", 1).ok());
    }
    ASSERT_GT(log.value()->rotated_segments(), 0u);
    chain_before = log.value()->chain();
    records_before = log.value()->records();
  }
  {
    Result<std::unique_ptr<TraceLog>> log = TraceLog::Open(path, options);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ(log.value()->chain(), chain_before)
        << "reopen must resume the chain across segment files";
    EXPECT_EQ(log.value()->records(), records_before);
    ASSERT_TRUE(
        log.value()->Append(MakeStampedSlot(99, 0, 99), "shard", 2).ok());
  }
  Result<AuditVerifyReport> report = VerifyAuditLogChain(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().records, records_before + 1);
}

TEST(TraceLogTest, MidSegmentCorruptionIsDataLoss) {
  std::string path = TestTempPath("trace_corrupt.jsonl");
  TraceLogOptions options;
  options.rotate_bytes = 512;
  {
    Result<std::unique_ptr<TraceLog>> log = TraceLog::Open(path, options);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    for (uint64_t i = 1; i <= 20; ++i) {
      ASSERT_TRUE(
          log.value()->Append(MakeStampedSlot(i, 0, i), "shard", 1).ok());
    }
    ASSERT_GT(log.value()->rotated_segments(), 0u);
  }
  // Flip one byte inside the FIRST rotated segment; the whole-chain
  // walk must refuse, even though the active file is pristine.
  std::string victim = path + ".1";
  std::FILE* f = std::fopen(victim.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 24, SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, 24, SEEK_SET), 0);
  std::fputc(c ^ 0x01, f);
  std::fclose(f);

  Result<AuditVerifyReport> report = VerifyAuditLogChain(path);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDataLoss);
}

// ----------------------------------------------------- metrics exposition

TEST(MetricsEmitterTest, HelpAndTypeOncePerFamilyWithLabelledSamples) {
  std::string text;
  MetricsEmitter out(&text);
  out.Counter("test_hits_total", "Cache hits", 42);
  out.Gauge("test_depth", "Depth", 2.5);
  out.Counter("test_rows_total", "Rows", 7, "shard=\"0\"");
  out.Counter("test_rows_total", "Rows", 9, "shard=\"1\"");

  EXPECT_NE(text.find("# HELP test_hits_total Cache hits"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE test_hits_total counter"), std::string::npos);
  EXPECT_NE(text.find("test_hits_total 42\n"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("test_depth 2.5\n"), std::string::npos) << text;
  EXPECT_NE(text.find("test_rows_total{shard=\"0\"} 7\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("test_rows_total{shard=\"1\"} 9\n"), std::string::npos);

  // HELP/TYPE once per family even with several labeled samples.
  size_t first = text.find("# TYPE test_rows_total counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE test_rows_total counter", first + 1),
            std::string::npos);
}

/// Every counter family's unlabelled sample in an exposition text.
std::map<std::string, uint64_t> CounterFamilies(const std::string& text) {
  std::map<std::string, uint64_t> families;
  std::vector<std::string> counters;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream words(line);
    std::string first, second, third, fourth;
    words >> first >> second >> third >> fourth;
    if (first == "#" && second == "TYPE" && fourth == "counter") {
      counters.push_back(third);
    } else if (std::find(counters.begin(), counters.end(), first) !=
               counters.end()) {
      families[first] = std::stoull(second);
    }
  }
  return families;
}

TEST(MetricsEmitterTest, StatsViewFamiliesSumAcrossViews) {
  // The router-scrape == sum-of-daemon-scrapes property in miniature:
  // rendering a MergeFrom-folded view gives, for every counter family,
  // the sum of the individual renders' samples.
  ServerStats a_stats;
  ServerStats b_stats;
  auto drive = [](ServerStats* stats, uint64_t k) {
    stats->RecordSubmitted(10 * k);
    stats->RecordAdmissionShed(k);
    stats->RecordDeadlineShed(k + 1);
    stats->RecordInvalidRequest(k + 2);
    for (uint64_t i = 0; i < k; ++i) stats->RecordSnapshotSwap();
    for (uint64_t i = 0; i < 5 * k; ++i) {
      stats->RecordCompletion(std::chrono::microseconds(50 * (i + 1)));
    }
    for (uint64_t i = 0; i <= k; ++i) stats->RecordBatch(3 * k + i);
    stats->RecordDensity(8 * k, k);
    AuditFoldOutcome fold;
    fold.windows = static_cast<uint32_t>(2 * k);
    fold.breaches = static_cast<uint32_t>(k);
    fold.alerts_raised = static_cast<uint32_t>(k);
    stats->RecordAuditFold(fold);
    stats->RecordTraceSampled(3 * k);
    for (uint64_t i = 0; i < k; ++i) stats->RecordTraceAppendFailure();
  };
  drive(&a_stats, 1);
  drive(&b_stats, 3);
  ServerStats::View a = a_stats.Snapshot();
  ServerStats::View b = b_stats.Snapshot();
  ServerStats::View merged;
  merged.MergeFrom(a);
  merged.MergeFrom(b);

  auto render = [](const ServerStats::View& view) {
    std::string text;
    MetricsEmitter emitter(&text);
    EmitStatsViewMetrics(view, &emitter);
    return CounterFamilies(text);
  };
  std::map<std::string, uint64_t> a_families = render(a);
  std::map<std::string, uint64_t> b_families = render(b);
  std::map<std::string, uint64_t> merged_families = render(merged);
  ASSERT_EQ(merged_families.size(), 14u);
  for (const auto& [family, value] : merged_families) {
    // Both views contribute, so a max or last-writer rule would show.
    EXPECT_GT(a_families[family], 0u) << family;
    EXPECT_EQ(value, a_families[family] + b_families[family]) << family;
  }
  EXPECT_EQ(merged_families["fairdrift_trace_sampled_total"], 12u);
}

// ------------------------------------------------- percentile edge cases

TEST(ServerStatsTest, PercentileOfEmptyHistogramIsZero) {
  EXPECT_EQ(ServerStats::PercentileUsFromHist({}, 0.99), 0.0);
  std::vector<uint64_t> zeros(ServerStats::kLatencyBuckets, 0);
  EXPECT_EQ(ServerStats::PercentileUsFromHist(zeros, 0.50), 0.0);
  EXPECT_EQ(ServerStats::PercentileUsFromHist(zeros, 0.99), 0.0);
}

TEST(ServerStatsTest, PercentileOfSingleBucketIsThatBucket) {
  std::vector<uint64_t> hist(ServerStats::kLatencyBuckets, 0);
  hist[17] = 1000;  // all mass in one bucket
  double want = ServerStats::BucketLatencyUs(17);
  EXPECT_EQ(ServerStats::PercentileUsFromHist(hist, 0.01), want);
  EXPECT_EQ(ServerStats::PercentileUsFromHist(hist, 0.50), want);
  EXPECT_EQ(ServerStats::PercentileUsFromHist(hist, 0.99), want);
}

TEST(ServerStatsTest, PercentileWithMassInOverflowBucketStaysFinite) {
  std::vector<uint64_t> hist(ServerStats::kLatencyBuckets, 0);
  hist[ServerStats::kLatencyBuckets - 1] = 5;  // overflow bucket only
  double p99 = ServerStats::PercentileUsFromHist(hist, 0.99);
  EXPECT_EQ(p99, ServerStats::BucketLatencyUs(ServerStats::kLatencyBuckets - 1));
  EXPECT_TRUE(std::isfinite(p99));

  // Mixed: half fast, half in overflow — the median is the fast bucket,
  // the tail is the overflow bucket.
  hist[0] = 5;
  EXPECT_EQ(ServerStats::PercentileUsFromHist(hist, 0.50),
            ServerStats::BucketLatencyUs(0));
  EXPECT_EQ(ServerStats::PercentileUsFromHist(hist, 0.99),
            ServerStats::BucketLatencyUs(ServerStats::kLatencyBuckets - 1));
}

// ------------------------------------------------- traced serving, E2E

TEST(ServerTraceTest, SampledRequestsStampMonotonicSpansAndEmitRecords) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(17);
  ASSERT_NE(snapshot, nullptr);
  std::string path = TestTempPath("trace_server.jsonl");
  Result<std::unique_ptr<TraceLog>> log = TraceLog::Open(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();

  ServerOptions options;
  options.trace.enabled = true;
  options.trace.sample_modulus = 1;  // every request traces
  options.trace.sink = log.value().get();
  options.trace.role = "server";
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::vector<std::vector<double>> rows = MakeRequests(16, 23);
  uint64_t parent = TraceSpanId(0, "test-upstream");
  for (const auto& row : rows) {
    SubmitTraceInfo info;
    info.parent_span_id = parent;
    info.wire_recv_ns = MonotonicNowNs();
    Result<ScoreTicket> ticket =
        server.value()->Submit(row, row.size(), RequestAuditInfo{}, info,
                               std::chrono::nanoseconds{0});
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    Result<ScoreResult> result = ticket.value().Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    TraceSpanSlot* slot = ticket.value().trace_slot();
    ASSERT_NE(slot, nullptr);
    ASSERT_TRUE(slot->sampled());
    EXPECT_EQ(slot->context.parent_span_id, parent);
    EXPECT_EQ(slot->context.trace_id, result.value().trace_id);

    // Every stamped stage is non-decreasing in canonical order.
    uint64_t prev = 0;
    size_t stamped = 0;
    for (size_t s = 0; s < kTraceStageCount; ++s) {
      uint64_t ns = slot->stamp_ns[s];
      if (ns == 0) continue;
      ++stamped;
      EXPECT_GE(ns, prev) << "stage " << s << " regressed";
      prev = ns;
    }
    EXPECT_GE(stamped, 5u)
        << "wire_recv/admit/enqueue/dequeue/batch_assemble/score at least";
    EXPECT_NE(slot->stamp(TraceStage::kWireRecv), 0u);
    EXPECT_NE(slot->stamp(TraceStage::kScore), 0u);
  }

  ServerStats::View view = server.value()->stats();
  EXPECT_EQ(view.trace_sampled, rows.size());
  EXPECT_EQ(view.trace_append_failures, 0u);
  for (size_t s = 0; s < ServerStats::kServeStages; ++s) {
    uint64_t total = 0;
    for (uint64_t c : view.stage_hist[s]) total += c;
    EXPECT_GT(total, 0u) << "stage " << ServerStats::StageName(s)
                         << " folded no latencies";
  }

  // Server-side emission (defer_emit off): one chained record per
  // sampled request, verifiable and carrying the expected identity.
  // Records emit after ticket completion (appending never sits inside
  // the client-observed latency), so drain the server first.
  server.value().reset();
  EXPECT_EQ(log.value()->records(), rows.size());
  AuditVerifyReport report;
  Result<std::vector<AuditLogEntry>> entries =
      ReadAuditLogChain(path, &report);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries.value().size(), rows.size());
  char parent_hex[40];
  std::snprintf(parent_hex, sizeof(parent_hex), "\"parent\":\"%016llx\"",
                static_cast<unsigned long long>(parent));
  for (const AuditLogEntry& entry : entries.value()) {
    EXPECT_NE(entry.rec.find("\"role\":\"server\""), std::string::npos)
        << entry.rec;
    EXPECT_NE(entry.rec.find(parent_hex), std::string::npos) << entry.rec;
    EXPECT_NE(entry.rec.find("\"score\":"), std::string::npos) << entry.rec;
  }
}

TEST(ServerTraceTest, UnsampledAndDisabledPathsCarryNoTrace) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(19);
  ASSERT_NE(snapshot, nullptr);

  // Tracing off: trace ids stay zero, nothing sampled.
  Result<std::unique_ptr<ScoringServer>> plain =
      ScoringServer::Create(snapshot, {});
  ASSERT_TRUE(plain.ok());
  std::vector<std::vector<double>> rows = MakeRequests(8, 29);
  for (const auto& row : rows) {
    Result<ScoreResult> result = plain.value()->ScoreSync(row);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().trace_id, 0u);
  }
  EXPECT_EQ(plain.value()->stats().trace_sampled, 0u);

  // Tracing on with a huge modulus: rows that don't hash to the sampled
  // set keep the zero context even though tracing is armed.
  ServerOptions options;
  options.trace.enabled = true;
  options.trace.sample_modulus = 1u << 30;
  Result<std::unique_ptr<ScoringServer>> traced =
      ScoringServer::Create(snapshot, options);
  ASSERT_TRUE(traced.ok());
  for (const auto& row : rows) {
    TraceContext minted =
        MintTraceContext(row.data(), row.size(), 1u << 30);
    Result<ScoreResult> result = traced.value()->ScoreSync(row);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().trace_id, minted.trace_id);
  }
}

}  // namespace
}  // namespace fairdrift
