// Tests for the src/serve/audit/ fairness observability tier.
//
// The load-bearing contract is bitwise reproducibility: a window's
// online metrics must equal the batch fairness/metrics computation on
// the same rows bit for bit, and `audit replay` must reproduce a logged
// window's evidence exactly from the log plus the snapshot file. The
// rest covers the checksum chain (round-trip, corruption, torn tails,
// injected append faults), alert hysteresis, the shard->fleet merger,
// and snapshot v4 group-field persistence.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/deployment.h"
#include "fairness/group_stats.h"
#include "fairness/metrics.h"
#include "serve/audit/audit_log.h"
#include "serve/audit/audit_records.h"
#include "serve/audit/auditor.h"
#include "serve/audit/fairness_window.h"
#include "serve/audit/replay.h"
#include "serve/fleet/fleet.h"
#include "serve/snapshot.h"
#include "serve/snapshot_io.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/status.h"
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

std::shared_ptr<const ModelSnapshot> MakeAuditSnapshot(
    uint64_t seed, const std::string& group_field = "cat") {
  Dataset train = MakeTrainingData(400, seed);
  TrainSpec spec = ServingSpec(Method::kNoIntervention);
  spec.audit_group_field = group_field;
  Result<std::shared_ptr<const ModelSnapshot>> snapshot =
      BuildSnapshot(train, spec);
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  return snapshot.ok() ? snapshot.value() : nullptr;
}

std::string TempPath(const std::string& name) {
  std::string path = TestTempPath(name);
  std::remove(path.c_str());
  return path;
}

AuditObservation Obs(int group, int predicted, int true_label,
                     double score) {
  AuditObservation obs;
  obs.group = group;
  obs.predicted = predicted;
  obs.true_label = true_label;
  obs.score = score;
  return obs;
}

// Arms the global injector for one test and guarantees disarm on exit.
struct FaultGuard {
  explicit FaultGuard(uint64_t seed) { FaultInjector::Global().Arm(seed); }
  ~FaultGuard() { FaultInjector::Global().Disarm(); }
};

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// ------------------------------------------------ window accumulator

// The tentpole property: folding rows one at a time through the
// accumulator lands on metrics bitwise identical to handing the same
// rows to the batch fairness/metrics path.
TEST(FairnessWindowTest, IncrementalMatchesBatchBitwise) {
  const size_t kWindow = 128;
  FairnessWindowAccumulator acc(kWindow, AlertPolicy{});
  Rng rng(17);

  std::vector<int> preds;
  std::vector<int> groups;
  std::vector<int> labels;  // -1 = unlabeled
  size_t windows_checked = 0;

  for (size_t i = 0; i < 4 * kWindow; ++i) {
    // Guarantee both groups appear in every window, plus group-2 noise
    // rows that must count only toward the overall tallies.
    int group = i % 5 == 4 ? 2 : static_cast<int>(i % 2);
    int pred = rng.Bernoulli(group == 1 ? 0.3 : 0.6) ? 1 : 0;
    int label = rng.Uniform() < 0.2 ? -1 : (rng.Bernoulli(0.5) ? 1 : 0);
    double score = rng.Uniform();

    preds.push_back(pred);
    groups.push_back(group);
    labels.push_back(label);

    const FairnessWindow* w = acc.Fold(Obs(group, pred, label, score));
    if (w == nullptr) continue;
    ++windows_checked;

    // DI / DI* / SPD from all rows, feeding predictions as truth so the
    // confusion counts are selection-shaped exactly like the window's.
    Result<GroupedPredictionStats> sel =
        ComputeGroupStats(preds, preds, groups);
    ASSERT_TRUE(sel.ok()) << sel.status().ToString();
    EXPECT_EQ(DoubleBits(w->metrics.di), DoubleBits(DisparateImpact(sel.value())));
    EXPECT_EQ(DoubleBits(w->metrics.di_star),
              DoubleBits(DisparateImpactStar(sel.value())));
    EXPECT_EQ(DoubleBits(w->metrics.spd),
              DoubleBits(SelectionRateDifference(sel.value())));

    // EOD from the labeled subset.
    std::vector<int> lt, lp, lg;
    for (size_t k = 0; k < labels.size(); ++k) {
      if (labels[k] < 0) continue;
      lt.push_back(labels[k]);
      lp.push_back(preds[k]);
      lg.push_back(groups[k]);
    }
    ASSERT_FALSE(lt.empty());
    Result<GroupedPredictionStats> lab = ComputeGroupStats(lt, lp, lg);
    ASSERT_TRUE(lab.ok()) << lab.status().ToString();
    EXPECT_EQ(DoubleBits(w->metrics.eod_fnr),
              DoubleBits(EqualizedOddsFnrDifference(lab.value())));
    EXPECT_EQ(DoubleBits(w->metrics.eod_fpr),
              DoubleBits(EqualizedOddsFprDifference(lab.value())));

    // Window bookkeeping: noise rows count toward overall only.
    size_t noise = 0;
    for (int g : groups) noise += g == 2 ? 1 : 0;
    EXPECT_EQ(w->size, kWindow);
    EXPECT_EQ(w->overall.count, kWindow);
    EXPECT_EQ(w->majority.count + w->minority.count + noise, kWindow);

    preds.clear();
    groups.clear();
    labels.clear();
  }
  EXPECT_EQ(windows_checked, 4u);
  EXPECT_EQ(acc.windows_completed(), 4u);
  EXPECT_EQ(acc.observations(), 4 * kWindow);
  EXPECT_EQ(acc.cumulative_overall().count, 4 * kWindow);
}

TEST(FairnessWindowTest, ZeroPositivesWindowsAreNaNFree) {
  // Both groups select nobody: DI is defined as 1 (no disparity).
  FairnessWindowAccumulator acc(4, AlertPolicy{});
  const FairnessWindow* w = nullptr;
  for (int i = 0; i < 4; ++i) {
    w = acc.Fold(Obs(i % 2, 0, i % 2, 0.1));
  }
  ASSERT_NE(w, nullptr);
  EXPECT_FALSE(std::isnan(w->metrics.di));
  EXPECT_FALSE(std::isnan(w->metrics.di_star));
  EXPECT_FALSE(std::isnan(w->metrics.spd));
  EXPECT_FALSE(std::isnan(w->metrics.eod_fnr));
  EXPECT_FALSE(std::isnan(w->metrics.eod_fpr));
  EXPECT_EQ(w->metrics.di, 1.0);
  EXPECT_EQ(w->metrics.di_star, 1.0);
  EXPECT_EQ(w->metrics.spd, 0.0);
  EXPECT_FALSE(w->breach);

  // Only the minority selects: DI = +inf, DI* = 0 — flagged, not NaN.
  const FairnessWindow* w2 = nullptr;
  for (int i = 0; i < 4; ++i) {
    int group = i % 2;
    w2 = acc.Fold(Obs(group, group == 1 ? 1 : 0, group, 0.9));
  }
  ASSERT_NE(w2, nullptr);
  EXPECT_TRUE(std::isinf(w2->metrics.di));
  EXPECT_EQ(w2->metrics.di_star, 0.0);
  EXPECT_FALSE(std::isnan(w2->metrics.spd));
  EXPECT_TRUE(w2->breach) << "DI* = 0 must breach the 0.8 floor";
}

TEST(FairnessWindowTest, SingleGroupWindowReportsInsufficientGroups) {
  AlertPolicy policy;
  policy.di_star_floor = 0.99;  // Strict: any raw computation would breach.
  FairnessWindowAccumulator acc(4, policy);
  const FairnessWindow* w = nullptr;
  for (int i = 0; i < 4; ++i) {
    // One group only, all negative decisions: a raw DI would be 0.
    w = acc.Fold(Obs(1, 0, 0, 0.2));
  }
  ASSERT_NE(w, nullptr);
  EXPECT_TRUE(w->metrics.insufficient_groups);
  EXPECT_EQ(w->metrics.di, 1.0);
  EXPECT_EQ(w->metrics.di_star, 1.0);
  EXPECT_EQ(w->metrics.spd, 0.0);
  EXPECT_EQ(w->metrics.eod_fnr, 0.0);
  EXPECT_EQ(w->metrics.eod_fpr, 0.0);
  EXPECT_FALSE(w->breach) << "routing artifact, not discrimination";
  EXPECT_EQ(acc.breaches(), 0u);
}

TEST(FairnessWindowTest, InsufficientLabelsExcludesEodFromBreach) {
  AlertPolicy policy;
  policy.di_star_floor = 0.0;  // DI can never breach (strictly-less floor).
  policy.eod_ceiling = 0.5;
  FairnessWindowAccumulator acc(4, policy);
  // Equal selection rates; majority labeled with a worst-case confusion
  // (FNR = FPR = 1), minority fully unlabeled.
  acc.Fold(Obs(0, 1, 0, 0.6));  // fp
  acc.Fold(Obs(0, 0, 1, 0.4));  // fn
  acc.Fold(Obs(1, 1, -1, 0.6));
  const FairnessWindow* w = acc.Fold(Obs(1, 0, -1, 0.4));
  ASSERT_NE(w, nullptr);
  EXPECT_TRUE(w->metrics.insufficient_labels);
  EXPECT_GT(w->metrics.eod_fnr, policy.eod_ceiling);
  EXPECT_FALSE(w->breach)
      << "EOD is advisory when a group has no labeled rows";
}

TEST(FairnessWindowTest, AlertHysteresisRaisesAndClears) {
  AlertPolicy policy;
  policy.trigger_windows = 2;
  policy.clear_windows = 2;
  FairnessWindowAccumulator acc(4, policy);

  // Breaching window: majority all selected, minority none (DI* = 0).
  auto fold_breaching = [&]() -> const FairnessWindow* {
    const FairnessWindow* w = nullptr;
    for (int i = 0; i < 4; ++i) {
      int group = i % 2;
      w = acc.Fold(Obs(group, group == 0 ? 1 : 0, group, 0.5));
    }
    return w;
  };
  // Clean window: identical selection in both groups (DI* = 1).
  auto fold_clean = [&]() -> const FairnessWindow* {
    const FairnessWindow* w = nullptr;
    for (int i = 0; i < 4; ++i) {
      w = acc.Fold(Obs(i % 2, i < 2 ? 1 : 0, i % 2, 0.5));
    }
    return w;
  };

  const FairnessWindow* w = fold_breaching();
  EXPECT_TRUE(w->breach);
  EXPECT_FALSE(w->alert_active) << "one breach is below the trigger";
  EXPECT_FALSE(w->alert_raised);

  w = fold_breaching();
  EXPECT_TRUE(w->alert_raised) << "second consecutive breach raises";
  EXPECT_TRUE(w->alert_active);
  EXPECT_TRUE(acc.alert_active());

  w = fold_breaching();
  EXPECT_FALSE(w->alert_raised) << "already raised";
  EXPECT_TRUE(w->alert_active);

  w = fold_clean();
  EXPECT_FALSE(w->breach);
  EXPECT_TRUE(w->alert_active) << "one clean window is below the clear";
  EXPECT_FALSE(w->alert_cleared);

  w = fold_clean();
  EXPECT_TRUE(w->alert_cleared) << "second consecutive clean clears";
  EXPECT_FALSE(w->alert_active);
  EXPECT_FALSE(acc.alert_active());

  EXPECT_EQ(acc.alerts_raised(), 1u);
  EXPECT_EQ(acc.breaches(), 3u);
  EXPECT_FALSE(BreachReason(w->metrics, policy).size() > 0);
}

// ------------------------------------------------------- wire records

TEST(AuditRecordsTest, DoubleBitsRoundTripIsExact) {
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           -12345.6789,
                           5e-324,  // Smallest denormal.
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  for (double v : values) {
    std::string hex;
    AppendDoubleBits(v, &hex);
    ASSERT_EQ(hex.size(), 16u);
    Result<double> back = ParseDoubleBits(hex.data(), hex.size());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(DoubleBits(v), DoubleBits(back.value()));
  }
  EXPECT_FALSE(ParseDoubleBits("abc", 3).ok());
  EXPECT_FALSE(ParseDoubleBits("zzzzzzzzzzzzzzzz", 16).ok());
}

TEST(AuditRecordsTest, WindowRecordRoundTripsBitwise) {
  AuditWindowRecord rec;
  rec.shard = 2;
  rec.has_rows = true;
  rec.window.index = 7;
  rec.window.start_seq = 7 * 128;
  rec.window.size = 128;
  rec.window.majority.count = 80;
  rec.window.majority.positives = 41;
  rec.window.majority.labeled = 60;
  rec.window.majority.tp = 20;
  rec.window.majority.fp = 11;
  rec.window.majority.tn = 19;
  rec.window.majority.fn = 10;
  rec.window.majority.score_sum = 0.1 + 0.2;  // Deliberately inexact.
  rec.window.minority.count = 40;
  rec.window.minority.positives = 9;
  rec.window.minority.score_sum = 1.0 / 7.0;
  rec.window.overall.count = 128;
  rec.window.snapshot_version_min = 3;
  rec.window.snapshot_version_max = 4;
  rec.window.density_checked = 100;
  rec.window.density_outliers = 13;
  rec.window.metrics = ComputeWindowMetrics(rec.window.majority,
                                            rec.window.minority);
  rec.window.breach = true;
  rec.window.alert_active = true;
  rec.window.alert_raised = true;
  rec.policy.di_star_floor = 0.85;
  rec.policy.spd_ceiling = 0.3;

  std::string json;
  SerializeTo(rec, &json);
  Result<std::string> type = PeekRecordType(json);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(type.value(), "window");

  Result<AuditWindowRecord> back = ParseWindowRecord(json);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const AuditWindowRecord& b = back.value();
  EXPECT_EQ(b.shard, rec.shard);
  EXPECT_EQ(b.has_rows, rec.has_rows);
  EXPECT_EQ(b.window.index, rec.window.index);
  EXPECT_EQ(b.window.size, rec.window.size);
  EXPECT_EQ(b.window.majority.count, rec.window.majority.count);
  EXPECT_EQ(b.window.majority.tp, rec.window.majority.tp);
  EXPECT_EQ(DoubleBits(b.window.majority.score_sum),
            DoubleBits(rec.window.majority.score_sum));
  EXPECT_EQ(DoubleBits(b.window.minority.score_sum),
            DoubleBits(rec.window.minority.score_sum));
  EXPECT_EQ(DoubleBits(b.window.metrics.di), DoubleBits(rec.window.metrics.di));
  EXPECT_EQ(DoubleBits(b.window.metrics.di_star),
            DoubleBits(rec.window.metrics.di_star));
  EXPECT_EQ(DoubleBits(b.window.metrics.spd),
            DoubleBits(rec.window.metrics.spd));
  EXPECT_EQ(b.window.breach, rec.window.breach);
  EXPECT_EQ(b.window.alert_raised, rec.window.alert_raised);
  EXPECT_EQ(DoubleBits(b.policy.di_star_floor),
            DoubleBits(rec.policy.di_star_floor));
  EXPECT_EQ(b.window.density_outliers, rec.window.density_outliers);
}

TEST(AuditRecordsTest, RowsRecordRoundTripsBitwise) {
  AuditRowsRecord rec;
  rec.shard = 1;
  rec.window_index = 9;
  rec.width = 2;
  rec.rows = {0.5, -1.25, 1.0 / 3.0, 2e-308};
  rec.groups = {0, 1};
  rec.labels = {1, -1};
  rec.preds = {1, 0};
  rec.scores = {0.75, 0.1 + 0.2};

  std::string json;
  SerializeTo(rec, &json);
  Result<std::string> type = PeekRecordType(json);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(type.value(), "rows");

  Result<AuditRowsRecord> back = ParseRowsRecord(json);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const AuditRowsRecord& b = back.value();
  EXPECT_EQ(b.shard, rec.shard);
  EXPECT_EQ(b.window_index, rec.window_index);
  EXPECT_EQ(b.width, rec.width);
  ASSERT_EQ(b.rows.size(), rec.rows.size());
  for (size_t i = 0; i < rec.rows.size(); ++i) {
    EXPECT_EQ(DoubleBits(b.rows[i]), DoubleBits(rec.rows[i]));
  }
  EXPECT_EQ(b.groups, rec.groups);
  EXPECT_EQ(b.labels, rec.labels);
  EXPECT_EQ(b.preds, rec.preds);
  ASSERT_EQ(b.scores.size(), rec.scores.size());
  for (size_t i = 0; i < rec.scores.size(); ++i) {
    EXPECT_EQ(DoubleBits(b.scores[i]), DoubleBits(rec.scores[i]));
  }
}

// ---------------------------------------------------------- audit log

TEST(AuditLogTest, AppendReadVerifyRoundTrip) {
  std::string path = TempPath("audit_roundtrip.jsonl");
  uint64_t chain;
  {
    Result<std::unique_ptr<AuditLog>> log = AuditLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_TRUE(log.value()->Append("{\"type\":\"window\",\"i\":0}").ok());
    ASSERT_TRUE(log.value()->Append("{\"type\":\"window\",\"i\":1}").ok());
    ASSERT_TRUE(log.value()->Append("{\"type\":\"rows\",\"i\":1}").ok());
    ASSERT_TRUE(log.value()->Sync().ok());
    EXPECT_EQ(log.value()->records(), 3u);
    chain = log.value()->chain();
    EXPECT_NE(chain, kAuditChainSeed);
  }

  Result<AuditVerifyReport> verify = VerifyAuditLog(path);
  ASSERT_TRUE(verify.ok()) << verify.status().ToString();
  EXPECT_EQ(verify.value().records, 3u);
  EXPECT_EQ(verify.value().chain, chain);
  EXPECT_FALSE(verify.value().torn_tail);

  AuditVerifyReport report;
  Result<std::vector<AuditLogEntry>> entries = ReadAuditLog(path, &report);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries.value().size(), 3u);
  EXPECT_EQ(entries.value()[0].rec, "{\"type\":\"window\",\"i\":0}");
  EXPECT_EQ(entries.value()[2].rec, "{\"type\":\"rows\",\"i\":1}");
  EXPECT_EQ(entries.value()[2].chain, chain);
}

TEST(AuditLogTest, ReopenResumesTheChain) {
  std::string path = TempPath("audit_reopen.jsonl");
  {
    Result<std::unique_ptr<AuditLog>> log = AuditLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log.value()->Append("{\"a\":1}").ok());
    ASSERT_TRUE(log.value()->Append("{\"a\":2}").ok());
  }
  {
    Result<std::unique_ptr<AuditLog>> log = AuditLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ(log.value()->records(), 2u);
    EXPECT_EQ(log.value()->truncated_bytes(), 0u);
    ASSERT_TRUE(log.value()->Append("{\"a\":3}").ok());
  }
  Result<AuditVerifyReport> verify = VerifyAuditLog(path);
  ASSERT_TRUE(verify.ok()) << verify.status().ToString();
  EXPECT_EQ(verify.value().records, 3u);
}

TEST(AuditLogTest, MidFileCorruptionIsTypedDataLoss) {
  std::string path = TempPath("audit_corrupt.jsonl");
  {
    Result<std::unique_ptr<AuditLog>> log = AuditLog::Open(path);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(log.value()->Append("{\"i\":" + std::to_string(i) + "}").ok());
    }
  }
  // Flip one byte in the middle of the file.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(40);
    char c;
    f.seekg(40);
    f.get(c);
    f.seekp(40);
    f.put(c == 'x' ? 'y' : 'x');
  }
  Result<AuditVerifyReport> verify = VerifyAuditLog(path);
  ASSERT_FALSE(verify.ok());
  EXPECT_EQ(verify.status().code(), StatusCode::kDataLoss);
  // The CLI exit code the CI smoke greps for is the numeric StatusCode.
  EXPECT_EQ(static_cast<int>(verify.status().code()), 10);

  // Appending after corruption would bury the evidence: Open refuses.
  Result<std::unique_ptr<AuditLog>> reopened = AuditLog::Open(path);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
}

TEST(AuditLogTest, TornTailIsToleratedAndTruncatedOnReopen) {
  std::string path = TempPath("audit_torn.jsonl");
  uint64_t full_size = 0;
  {
    Result<std::unique_ptr<AuditLog>> log = AuditLog::Open(path);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(log.value()->Append("{\"i\":" + std::to_string(i) + "}").ok());
    }
  }
  {
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    full_size = static_cast<uint64_t>(f.tellg());
  }
  // Chop the final record mid-line: a crashed writer's signature.
  ASSERT_EQ(truncate(path.c_str(), static_cast<off_t>(full_size - 7)), 0);

  Result<AuditVerifyReport> verify = VerifyAuditLog(path);
  ASSERT_TRUE(verify.ok()) << verify.status().ToString();
  EXPECT_EQ(verify.value().records, 3u);
  EXPECT_TRUE(verify.value().torn_tail);
  EXPECT_GT(verify.value().torn_bytes, 0u);

  // Open truncates the torn tail and resumes cleanly.
  {
    Result<std::unique_ptr<AuditLog>> log = AuditLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ(log.value()->records(), 3u);
    EXPECT_GT(log.value()->truncated_bytes(), 0u);
    ASSERT_TRUE(log.value()->Append("{\"i\":99}").ok());
  }
  Result<AuditVerifyReport> healed = VerifyAuditLog(path);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed.value().records, 4u);
  EXPECT_FALSE(healed.value().torn_tail);
}

TEST(AuditLogTest, InjectedAppendFaultDropsRecordKeepsChainValid) {
  std::string path = TempPath("audit_fault.jsonl");
  FaultGuard guard(7);
  FaultRule rule;
  rule.max_fires = 1;
  FaultInjector::Global().SetRule("audit.append", rule);

  Result<std::unique_ptr<AuditLog>> log = AuditLog::Open(path);
  ASSERT_TRUE(log.ok());
  Status first = log.value()->Append("{\"i\":0}");
  EXPECT_FALSE(first.ok()) << "the armed fault must fail the append";
  EXPECT_EQ(log.value()->records(), 0u);
  EXPECT_EQ(log.value()->chain(), kAuditChainSeed)
      << "a failed append must not advance the chain";

  ASSERT_TRUE(log.value()->Append("{\"i\":1}").ok());
  EXPECT_EQ(log.value()->records(), 1u);
  EXPECT_EQ(FaultInjector::Global().fires("audit.append"), 1u);
  log.value().reset();  // Close the file.

  Result<AuditVerifyReport> verify = VerifyAuditLog(path);
  ASSERT_TRUE(verify.ok()) << verify.status().ToString();
  EXPECT_EQ(verify.value().records, 1u);
  EXPECT_FALSE(verify.value().torn_tail);
}

// ------------------------------------------------- fleet-level auditor

// Directly folds synthetic batches through ShardAuditors and checks the
// shard->fleet window merger pairs window k across shards.
TEST(FleetAuditorTest, MergerSumsShardWindows) {
  AuditOptions options;
  options.enabled = true;
  options.window_size = 4;
  Result<std::unique_ptr<FleetAuditor>> auditor =
      FleetAuditor::Create(options, /*num_shards=*/2, /*row_width=*/3);
  ASSERT_TRUE(auditor.ok()) << auditor.status().ToString();

  Matrix rows(4, 3);
  std::vector<ScoreResult> results(4);
  std::vector<int> groups = {0, 1, 0, 1};
  std::vector<int> labels = {1, 0, 0, 1};
  for (size_t i = 0; i < 4; ++i) {
    results[i].label = static_cast<int>(i % 2);
    results[i].probability = 0.25 * static_cast<double>(i);
  }

  for (size_t s = 0; s < 2; ++s) {
    AuditFoldOutcome outcome;
    auditor.value()->shard(s)->FoldBatch(rows, results.data(), groups.data(),
                                         labels.data(), 4, &outcome);
    EXPECT_EQ(outcome.windows, 1u);
    EXPECT_TRUE(outcome.has_metrics);
  }
  ASSERT_TRUE(auditor.value()->Flush().ok());

  FleetAuditView view = auditor.value()->view();
  EXPECT_TRUE(view.enabled);
  EXPECT_EQ(view.observations, 8u);
  EXPECT_EQ(view.windows, 2u);
  ASSERT_EQ(view.shard_windows.size(), 2u);
  EXPECT_EQ(view.shard_windows[0], 1u);
  EXPECT_EQ(view.shard_windows[1], 1u);
  EXPECT_EQ(view.fleet_windows, 1u) << "window 0 paired across both shards";
  EXPECT_EQ(view.fleet_windows_dropped, 0u);
  EXPECT_EQ(view.cumulative.insufficient_groups, false);
}

TEST(FleetAuditorTest, MergeHorizonDropsStragglerWindows) {
  AuditOptions options;
  options.enabled = true;
  options.window_size = 2;
  options.merge_horizon = 1;
  Result<std::unique_ptr<FleetAuditor>> auditor =
      FleetAuditor::Create(options, /*num_shards=*/2, /*row_width=*/2);
  ASSERT_TRUE(auditor.ok());

  Matrix rows(2, 2);
  std::vector<ScoreResult> results(2);
  std::vector<int> groups = {0, 1};
  std::vector<int> labels = {-1, -1};

  // Shard 0 completes 4 windows; shard 1 never reports — a straggler.
  for (int w = 0; w < 4; ++w) {
    auditor.value()->shard(0)->FoldBatch(rows, results.data(), groups.data(),
                                         labels.data(), 2, nullptr);
  }
  ASSERT_TRUE(auditor.value()->Flush().ok());

  FleetAuditView view = auditor.value()->view();
  EXPECT_EQ(view.windows, 4u);
  EXPECT_EQ(view.fleet_windows, 0u) << "nothing pairable without shard 1";
  EXPECT_GT(view.fleet_windows_dropped, 0u)
      << "unpairable windows past the horizon are dropped, not buffered";
}

// --------------------------------------------- end-to-end with replay

// The acceptance property: traffic served through a hash-routed fleet
// with row logging on produces a log from which every window's metrics
// reproduce bitwise against the snapshot — across 1, 2, and 3 shards.
TEST(AuditEndToEndTest, FleetReplayReproducesWindowsBitwise) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeAuditSnapshot(21);
  ASSERT_NE(snapshot, nullptr);

  for (size_t shards : {1u, 2u, 3u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    std::string log_path =
        TempPath("audit_e2e_" + std::to_string(shards) + ".jsonl");

    FleetOptions options;
    options.num_shards = shards;
    options.routing = FleetRoutingPolicy::kHashRow;
    options.audit.enabled = true;
    options.audit.window_size = 16;
    options.audit.row_logging = AuditRowLogging::kAll;
    options.audit.log_path = log_path;
    // An aggressive policy so flagged windows exist in the log.
    options.audit.alert.di_star_floor = 0.99;
    options.audit.alert.trigger_windows = 1;

    Result<std::unique_ptr<ScoringFleet>> fleet =
        ScoringFleet::Create(snapshot, options);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

    Rng rng(1000 + shards);
    const size_t kRows = 96 * shards;
    std::vector<ScoreTicket> tickets;
    tickets.reserve(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      int group = static_cast<int>(i % 2);
      std::vector<double> row(4);
      row[0] = rng.Gaussian(group == 1 ? 1.0 : -0.5, 1.0);
      row[1] = rng.Gaussian(0.0, 1.0);
      row[2] = rng.Gaussian(0.0, 1.0);
      row[3] = static_cast<double>(group);  // "cat" carries the group id.
      RequestAuditInfo info;
      info.group = group;
      info.label = rng.Bernoulli(group == 1 ? 0.3 : 0.6) ? 1 : 0;
      Result<ScoreTicket> ticket = fleet.value()->Submit(std::move(row), info);
      ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
      tickets.push_back(std::move(ticket).value());
    }
    for (ScoreTicket& t : tickets) {
      ASSERT_TRUE(t.Wait().ok());
    }
    ASSERT_NE(fleet.value()->auditor(), nullptr);
    ASSERT_TRUE(fleet.value()->auditor()->Flush().ok());

    FleetStatsView stats = fleet.value()->stats();
    EXPECT_TRUE(stats.audit.enabled);
    EXPECT_EQ(stats.audit.observations, kRows);
    EXPECT_GE(stats.audit.windows, 1u);
    EXPECT_EQ(stats.audit.log_failures, 0u);
    EXPECT_EQ(stats.shard_outlier_rates.size(), shards);
    uint64_t shard_windows = stats.audit.windows;

    // Close the log (fleet owns the auditor owns the log).
    fleet.value().reset();

    Result<ReplayReport> replay = ReplayAuditLog(log_path, *snapshot);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_EQ(replay.value().windows_replayed, shard_windows)
        << "every per-shard window must carry replayable rows under kAll";
    EXPECT_TRUE(replay.value().all_matched())
        << (replay.value().windows.empty()
                ? "no windows"
                : replay.value().windows.front().detail);
    EXPECT_FALSE(replay.value().torn_tail);

    // Flagged windows are present and reproduce too (the strict policy
    // guarantees breaches on this drifted traffic).
    EXPECT_GE(replay.value().flagged_replayed, 1u);
  }
}

TEST(AuditEndToEndTest, ReplayAgainstWrongSnapshotMismatches) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeAuditSnapshot(33);
  std::shared_ptr<const ModelSnapshot> other = MakeAuditSnapshot(34);
  ASSERT_NE(snapshot, nullptr);
  ASSERT_NE(other, nullptr);
  std::string log_path = TempPath("audit_wrong_snapshot.jsonl");

  FleetOptions options;
  options.num_shards = 1;
  options.audit.enabled = true;
  options.audit.window_size = 8;
  options.audit.row_logging = AuditRowLogging::kAll;
  options.audit.log_path = log_path;

  Result<std::unique_ptr<ScoringFleet>> fleet =
      ScoringFleet::Create(snapshot, options);
  ASSERT_TRUE(fleet.ok());
  Rng rng(5);
  std::vector<ScoreTicket> tickets;
  for (size_t i = 0; i < 32; ++i) {
    std::vector<double> row = {rng.Gaussian(), rng.Gaussian(), rng.Gaussian(),
                               static_cast<double>(i % 3)};
    RequestAuditInfo info;
    info.group = static_cast<int>(i % 2);
    Result<ScoreTicket> t = fleet.value()->Submit(std::move(row), info);
    ASSERT_TRUE(t.ok());
    tickets.push_back(std::move(t).value());
  }
  for (ScoreTicket& t : tickets) ASSERT_TRUE(t.Wait().ok());
  ASSERT_TRUE(fleet.value()->auditor()->Flush().ok());
  fleet.value().reset();

  // The right snapshot reproduces; a different model must not.
  Result<ReplayReport> good = ReplayAuditLog(log_path, *snapshot);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_TRUE(good.value().all_matched());

  Result<ReplayReport> bad = ReplayAuditLog(log_path, *other);
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_FALSE(bad.value().all_matched())
      << "a different model cannot reproduce the logged evidence";
}

// ------------------------------------------ snapshot group extraction

TEST(SnapshotAuditGroupTest, GroupFieldPersistsThroughSaveLoad) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeAuditSnapshot(11);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->group_field(), 3) << "\"cat\" is schema field 3";

  Matrix rows(6, 4);
  Rng rng(2);
  for (size_t i = 0; i < 6; ++i) {
    rows.At(i, 0) = rng.Gaussian();
    rows.At(i, 1) = rng.Gaussian();
    rows.At(i, 2) = rng.Gaussian();
    rows.At(i, 3) = static_cast<double>(i % 3);
  }
  ScoreScratch scratch;
  ASSERT_TRUE(snapshot->ScoreBatchInto(rows, &scratch).ok());
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(scratch.results[i].group, static_cast<int>(i % 3)) << i;
  }

  std::string path = TempPath("audit_group_snapshot.bin");
  ASSERT_TRUE(SaveSnapshot(*snapshot, path).ok());
  Result<std::shared_ptr<const ModelSnapshot>> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->group_field(), snapshot->group_field());

  ScoreScratch scratch2;
  ASSERT_TRUE(loaded.value()->ScoreBatchInto(rows, &scratch2).ok());
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(scratch2.results[i].group, scratch.results[i].group) << i;
    EXPECT_EQ(DoubleBits(scratch2.results[i].probability),
              DoubleBits(scratch.results[i].probability))
        << i;
  }
}

TEST(SnapshotAuditGroupTest, InvalidGroupFieldSpecsAreRejected) {
  Dataset train = MakeTrainingData(200, 3);
  TrainSpec spec = ServingSpec(Method::kNoIntervention);
  spec.audit_group_field = "no_such_field";
  EXPECT_FALSE(BuildSnapshot(train, spec).ok());

  spec.audit_group_field = "x0";  // Numeric: cannot carry a group code.
  EXPECT_FALSE(BuildSnapshot(train, spec).ok());
}

}  // namespace
}  // namespace fairdrift
