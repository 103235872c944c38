// Tests for snapshot persistence (serve/snapshot_io.h).
//
// The load-bearing contract is cross-process score identity: a snapshot
// saved to disk and loaded back must score every request row *bitwise
// identically* to the in-process original — across every intervention
// method and learner family. The corruption tests pin the typed-error
// contract: truncated, bit-flipped, future-version, and non-snapshot
// files all fail with Status::DataLoss, never with a mis-parse.

#include "serve/snapshot_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/artifacts.h"
#include "core/deployment.h"
#include "ml/gbt.h"
#include "ml/model_io.h"
#include "serve/server.h"
#include "util/binary_io.h"
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

Matrix MakeRequests(size_t n, uint64_t seed) {
  Rng rng(seed);
  Matrix rows(n, 4);
  for (size_t i = 0; i < n; ++i) {
    rows.At(i, 0) = rng.Gaussian();
    rows.At(i, 1) = rng.Gaussian();
    rows.At(i, 2) = rng.Gaussian();
    rows.At(i, 3) = static_cast<double>(rng.UniformInt(0, 2));
  }
  return rows;
}

/// Equality on the raw bit pattern: distinguishes -0.0 from 0.0 and
/// treats the no-monitor NaN sentinel as equal to itself.
void ExpectSameBits(double a, double b, size_t row, const char* what) {
  uint64_t ab, bb;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  EXPECT_EQ(ab, bb) << what << " differs at row " << row << ": " << a
                    << " vs " << b;
}

void ExpectBitwiseEqualScores(const std::vector<ScoreResult>& a,
                              const std::vector<ScoreResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ExpectSameBits(a[i].probability, b[i].probability, i, "probability");
    EXPECT_EQ(a[i].label, b[i].label) << "row " << i;
    EXPECT_EQ(a[i].routed_group, b[i].routed_group) << "row " << i;
    ExpectSameBits(a[i].margin, b[i].margin, i, "margin");
    ExpectSameBits(a[i].log_density, b[i].log_density, i, "log_density");
    EXPECT_EQ(a[i].density_outlier, b[i].density_outlier) << "row " << i;
  }
}

struct RoundTripCase {
  Method method;
  LearnerKind learner;
  const char* name;
};

class SnapshotRoundTripTest
    : public ::testing::TestWithParam<RoundTripCase> {};

// Save -> load -> score must be bitwise identical to the in-process
// snapshot, for all three deployable methods x both paper learner
// families (plus NB below).
TEST_P(SnapshotRoundTripTest, BitwiseIdenticalScores) {
  const RoundTripCase& param = GetParam();
  Dataset train = MakeTrainingData(400, 17);
  TrainSpec spec = ServingSpec(param.method);
  spec.learner = param.learner;
  Result<std::shared_ptr<const ModelSnapshot>> original =
      BuildSnapshot(train, spec);
  ASSERT_TRUE(original.ok()) << original.status().ToString();

  std::string path =
      TestTempPath(std::string("snapshot_") + param.name + ".bin");
  ASSERT_TRUE(SaveSnapshot(*original.value(), path).ok());
  Result<std::shared_ptr<const ModelSnapshot>> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_TRUE(loaded.value()->schema().Equals(original.value()->schema()));
  EXPECT_EQ(loaded.value()->routed(), original.value()->routed());
  EXPECT_EQ(loaded.value()->num_groups(), original.value()->num_groups());
  EXPECT_EQ(loaded.value()->has_profile(), original.value()->has_profile());
  EXPECT_EQ(loaded.value()->has_density(), original.value()->has_density());
  EXPECT_EQ(loaded.value()->density_floor(),
            original.value()->density_floor());

  Matrix requests = MakeRequests(128, 23);
  Result<std::vector<ScoreResult>> a = original.value()->ScoreBatch(requests);
  Result<std::vector<ScoreResult>> b = loaded.value()->ScoreBatch(requests);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectBitwiseEqualScores(a.value(), b.value());
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndLearners, SnapshotRoundTripTest,
    ::testing::Values(
        RoundTripCase{Method::kNoIntervention,
                      LearnerKind::kLogisticRegression, "plain_lr"},
        RoundTripCase{Method::kNoIntervention,
                      LearnerKind::kGradientBoosting, "plain_xgb"},
        RoundTripCase{Method::kConfair, LearnerKind::kLogisticRegression,
                      "confair_lr"},
        RoundTripCase{Method::kConfair, LearnerKind::kGradientBoosting,
                      "confair_xgb"},
        RoundTripCase{Method::kDiffair, LearnerKind::kLogisticRegression,
                      "diffair_lr"},
        RoundTripCase{Method::kDiffair, LearnerKind::kGradientBoosting,
                      "diffair_xgb"}),
    [](const ::testing::TestParamInfo<RoundTripCase>& info) {
      return std::string(info.param.name);
    });

// Prediction-time hyperparameters must travel with the fitted state: a
// GBT trained with a non-default learning rate (which scales every tree
// contribution at PredictProba time) must predict bitwise identically
// after a serialize/deserialize round trip.
TEST(SnapshotIoTest, GbtNonDefaultLearningRateRoundTrips) {
  Dataset train = MakeTrainingData(300, 71);
  Result<FeatureEncoder> encoder = FeatureEncoder::Fit(train);
  ASSERT_TRUE(encoder.ok());
  Result<Matrix> x = encoder.value().Transform(train);
  ASSERT_TRUE(x.ok());
  GbtOptions options;
  options.learning_rate = 0.05;
  options.num_rounds = 20;
  GradientBoostedTrees model(options);
  ASSERT_TRUE(model.Fit(x.value(), train.labels(), train.weights()).ok());

  BinaryWriter w;
  ASSERT_TRUE(SerializeClassifier(model, &w).ok());
  BinaryReader r(w.buffer());
  Result<std::unique_ptr<Classifier>> loaded = DeserializeClassifier(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  Result<std::vector<double>> expected = model.PredictProba(x.value());
  Result<std::vector<double>> actual = loaded.value()->PredictProba(x.value());
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(actual.ok());
  ASSERT_EQ(expected.value().size(), actual.value().size());
  for (size_t i = 0; i < expected.value().size(); ++i) {
    ExpectSameBits(expected.value()[i], actual.value()[i], i, "probability");
  }
}

// The third learner family rides the same wire format.
TEST(SnapshotIoTest, NaiveBayesRoundTrip) {
  Dataset train = MakeTrainingData(300, 31);
  TrainSpec spec = ServingSpec(Method::kConfair);
  spec.learner = LearnerKind::kNaiveBayes;
  Result<std::shared_ptr<const ModelSnapshot>> original =
      BuildSnapshot(train, spec);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  std::string path = TestTempPath("snapshot_nb.bin");
  ASSERT_TRUE(SaveSnapshot(*original.value(), path).ok());
  Result<std::shared_ptr<const ModelSnapshot>> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Matrix requests = MakeRequests(64, 37);
  Result<std::vector<ScoreResult>> a = original.value()->ScoreBatch(requests);
  Result<std::vector<ScoreResult>> b = loaded.value()->ScoreBatch(requests);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectBitwiseEqualScores(a.value(), b.value());
}

// The DIFFAIR routing rule is part of the frozen behavior: a
// violation-only snapshot must load with the same rule and score
// bitwise-identically (routing decides which model serves each row).
TEST(SnapshotIoTest, ViolationOnlyRoutingRuleRoundTrips) {
  Dataset train = MakeTrainingData(300, 83);
  TrainSpec spec = ServingSpec(Method::kDiffair);
  spec.diffair.routing = RoutingRule::kViolationOnly;
  Result<std::shared_ptr<const ModelSnapshot>> original =
      BuildSnapshot(train, spec);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  EXPECT_EQ(original.value()->routing(), RoutingRule::kViolationOnly);
  std::string path = TestTempPath("snapshot_violation_only.bin");
  ASSERT_TRUE(SaveSnapshot(*original.value(), path).ok());
  Result<std::shared_ptr<const ModelSnapshot>> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->routing(), RoutingRule::kViolationOnly);
  Matrix requests = MakeRequests(64, 89);
  Result<std::vector<ScoreResult>> a = original.value()->ScoreBatch(requests);
  Result<std::vector<ScoreResult>> b = loaded.value()->ScoreBatch(requests);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectBitwiseEqualScores(a.value(), b.value());
}

// A snapshot without a drift monitor round-trips too (the density block
// is optional in the format).
TEST(SnapshotIoTest, NoDensityRoundTrip) {
  Dataset train = MakeTrainingData(300, 41);
  TrainSpec spec = ServingSpec(Method::kNoIntervention);
  spec.include_density = false;
  Result<std::shared_ptr<const ModelSnapshot>> original =
      BuildSnapshot(train, spec);
  ASSERT_TRUE(original.ok());
  std::string path = TestTempPath("snapshot_nodensity.bin");
  ASSERT_TRUE(SaveSnapshot(*original.value(), path).ok());
  Result<std::shared_ptr<const ModelSnapshot>> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded.value()->has_density());
  Matrix requests = MakeRequests(32, 43);
  Result<std::vector<ScoreResult>> a = original.value()->ScoreBatch(requests);
  Result<std::vector<ScoreResult>> b = loaded.value()->ScoreBatch(requests);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectBitwiseEqualScores(a.value(), b.value());
}

std::string SaveReferenceSnapshot(const std::string& path) {
  Dataset train = MakeTrainingData(200, 53);
  TrainSpec spec = ServingSpec(Method::kConfair);
  Result<std::shared_ptr<const ModelSnapshot>> snapshot =
      BuildSnapshot(train, spec);
  EXPECT_TRUE(snapshot.ok());
  EXPECT_TRUE(SaveSnapshot(*snapshot.value(), path).ok());
  Result<std::string> bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok());
  return bytes.value();
}

TEST(SnapshotIoTest, CorruptedFileRejectedWithTypedError) {
  std::string path = TestTempPath("snapshot_corrupt.bin");
  std::string bytes = SaveReferenceSnapshot(path);
  ASSERT_GT(bytes.size(), 64u);
  // Flip one payload byte; the trailing FNV-1a must catch it.
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  ASSERT_TRUE(WriteFileBytes(path, bytes).ok());
  Result<std::shared_ptr<const ModelSnapshot>> loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotIoTest, TruncatedFileRejectedWithTypedError) {
  std::string path = TestTempPath("snapshot_truncated.bin");
  std::string bytes = SaveReferenceSnapshot(path);
  ASSERT_TRUE(WriteFileBytes(path, bytes.substr(0, bytes.size() / 3)).ok());
  Result<std::shared_ptr<const ModelSnapshot>> loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotIoTest, WrongFormatVersionRejectedWithTypedError) {
  std::string path = TestTempPath("snapshot_future.bin");
  std::string bytes = SaveReferenceSnapshot(path);
  // The u32 format version sits right after the 8-byte magic.
  bytes[8] = static_cast<char>(kSnapshotFormatVersion + 41);
  ASSERT_TRUE(WriteFileBytes(path, bytes).ok());
  Result<std::shared_ptr<const ModelSnapshot>> loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("format version"),
            std::string::npos);
}

TEST(SnapshotIoTest, NonSnapshotFileRejectedWithTypedError) {
  std::string path = TestTempPath("snapshot_garbage.bin");
  ASSERT_TRUE(
      WriteFileBytes(path, "this is not a snapshot at all, sorry").ok());
  Result<std::shared_ptr<const ModelSnapshot>> loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotIoTest, MissingFileIsIoError) {
  Result<std::shared_ptr<const ModelSnapshot>> loaded =
      LoadSnapshot(TestTempPath("does_not_exist.bin"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

// A loaded snapshot serves a ScoringServer exactly like a built one —
// the save -> (other process) -> load -> swap deployment shape.
TEST(SnapshotIoTest, LoadedSnapshotServes) {
  Dataset train = MakeTrainingData(300, 59);
  Result<std::shared_ptr<const ModelSnapshot>> original =
      BuildSnapshot(train, ServingSpec(Method::kDiffair));
  ASSERT_TRUE(original.ok());
  std::string path = TestTempPath("snapshot_served.bin");
  ASSERT_TRUE(SaveSnapshot(*original.value(), path).ok());
  Result<std::shared_ptr<const ModelSnapshot>> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok());

  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(loaded.value());
  ASSERT_TRUE(server.ok());
  Matrix requests = MakeRequests(64, 61);
  Result<std::vector<ScoreResult>> direct =
      original.value()->ScoreBatch(requests);
  ASSERT_TRUE(direct.ok());
  for (size_t i = 0; i < requests.rows(); ++i) {
    Result<ScoreResult> r = server.value()->ScoreSync(requests.Row(i));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().probability, direct.value()[i].probability);
    EXPECT_EQ(r.value().label, direct.value()[i].label);
    EXPECT_EQ(r.value().routed_group, direct.value()[i].routed_group);
    EXPECT_EQ(r.value().margin, direct.value()[i].margin);
    EXPECT_EQ(r.value().log_density, direct.value()[i].log_density);
  }
}

// ------------------------------------------------ format v2 / v1 compat

// The v2 density section serializes the fitted estimator (flat tree
// included); the legacy v1 section serializes the raw training matrix
// and refits on load. Both must produce bitwise-identical scores — v1
// files written by older builds keep loading correctly.
TEST(SnapshotIoTest, LegacyV1FileLoadsBitwiseIdentical) {
  Dataset train = MakeTrainingData(400, 67);
  TrainSpec spec = ServingSpec(Method::kConfair);
  Result<FittedArtifacts> artifacts = Fit(train, Dataset{}, spec);
  ASSERT_TRUE(artifacts.ok()) << artifacts.status().ToString();
  // The training matrix the monitor was fitted on — what a v1 writer
  // would have persisted.
  Matrix density_train = artifacts.value().density_train;
  ASSERT_FALSE(density_train.empty());
  Result<std::shared_ptr<const ModelSnapshot>> original =
      Freeze(std::move(artifacts).value());
  ASSERT_TRUE(original.ok()) << original.status().ToString();

  std::string v1_path = TestTempPath("snapshot_legacy_v1.bin");
  std::string v2_path = TestTempPath("snapshot_current_v2.bin");
  ASSERT_TRUE(
      SaveSnapshotV1(*original.value(), density_train, v1_path).ok());
  ASSERT_TRUE(SaveSnapshot(*original.value(), v2_path).ok());

  // The files genuinely differ in version byte and density layout.
  Result<SnapshotFileSignature> v1_sig = ProbeSnapshotFile(v1_path);
  Result<SnapshotFileSignature> v2_sig = ProbeSnapshotFile(v2_path);
  ASSERT_TRUE(v1_sig.ok());
  ASSERT_TRUE(v2_sig.ok());
  EXPECT_EQ(v1_sig.value().format_version, 1u);
  EXPECT_EQ(v2_sig.value().format_version, kSnapshotFormatVersion);
  EXPECT_NE(v1_sig.value().checksum, v2_sig.value().checksum);

  Result<std::shared_ptr<const ModelSnapshot>> from_v1 =
      LoadSnapshot(v1_path);
  Result<std::shared_ptr<const ModelSnapshot>> from_v2 =
      LoadSnapshot(v2_path);
  ASSERT_TRUE(from_v1.ok()) << from_v1.status().ToString();
  ASSERT_TRUE(from_v2.ok()) << from_v2.status().ToString();
  EXPECT_TRUE(from_v1.value()->has_density());
  EXPECT_TRUE(from_v2.value()->has_density());

  Matrix requests = MakeRequests(96, 73);
  Result<std::vector<ScoreResult>> reference =
      original.value()->ScoreBatch(requests);
  Result<std::vector<ScoreResult>> a = from_v1.value()->ScoreBatch(requests);
  Result<std::vector<ScoreResult>> b = from_v2.value()->ScoreBatch(requests);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectBitwiseEqualScores(reference.value(), a.value());
  ExpectBitwiseEqualScores(reference.value(), b.value());
}

// ------------------------------------------------------- monitor policy

TEST(SnapshotIoTest, MonitorSpecRoundTripsAndDefaultsOnOlderFiles) {
  Dataset train = MakeTrainingData(300, 83);
  TrainSpec spec = ServingSpec(Method::kNoIntervention);
  spec.monitor = MonitorSpec{MonitorMode::kSampled, /*sample_modulus=*/7};
  Result<FittedArtifacts> artifacts = Fit(train, Dataset{}, spec);
  ASSERT_TRUE(artifacts.ok()) << artifacts.status().ToString();
  Matrix density_train = artifacts.value().density_train;
  Result<std::shared_ptr<const ModelSnapshot>> original =
      Freeze(std::move(artifacts).value());
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  EXPECT_EQ(original.value()->monitor().mode, MonitorMode::kSampled);
  EXPECT_EQ(original.value()->monitor().sample_modulus, 7u);

  // v3 carries the policy.
  std::string path = TestTempPath("snapshot_monitor_v3.bin");
  ASSERT_TRUE(SaveSnapshot(*original.value(), path).ok());
  Result<std::shared_ptr<const ModelSnapshot>> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->monitor().mode, MonitorMode::kSampled);
  EXPECT_EQ(loaded.value()->monitor().sample_modulus, 7u);

  // A legacy v1 file has no monitor section: the exact-mode default — the
  // historical behavior of every pre-v3 deployment — loads in its place.
  std::string v1_path = TestTempPath("snapshot_monitor_v1.bin");
  ASSERT_TRUE(
      SaveSnapshotV1(*original.value(), density_train, v1_path).ok());
  Result<std::shared_ptr<const ModelSnapshot>> from_v1 =
      LoadSnapshot(v1_path);
  ASSERT_TRUE(from_v1.ok()) << from_v1.status().ToString();
  EXPECT_EQ(from_v1.value()->monitor().mode, MonitorMode::kExact);
  EXPECT_EQ(from_v1.value()->monitor().sample_modulus, 16u);
}

// ---------------------------------------------------------- atomic save

// SaveSnapshot replaces the file atomically (tmp + rename): a reader
// hammering LoadSnapshot while a writer alternates between two snapshots
// must see every load succeed — either the old or the new complete file,
// never a torn or missing one.
TEST(SnapshotIoTest, ConcurrentReaderNeverSeesTornFile) {
  Dataset train = MakeTrainingData(200, 79);
  TrainSpec spec = ServingSpec(Method::kNoIntervention);
  spec.include_density = false;  // keep save/load cheap for the loop
  Result<std::shared_ptr<const ModelSnapshot>> plain =
      BuildSnapshot(train, spec);
  Result<std::shared_ptr<const ModelSnapshot>> routed =
      BuildSnapshot(train, ServingSpec(Method::kDiffair));
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(routed.ok());
  size_t plain_groups = static_cast<size_t>(plain.value()->num_groups());
  size_t routed_groups = static_cast<size_t>(routed.value()->num_groups());

  std::string path = TestTempPath("snapshot_atomic.bin");
  ASSERT_TRUE(SaveSnapshot(*plain.value(), path).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> loads{0};
  std::atomic<uint64_t> failures{0};
  std::thread reader([&] {
    while (!stop.load()) {
      Result<std::shared_ptr<const ModelSnapshot>> loaded =
          LoadSnapshot(path);
      if (!loaded.ok()) {
        ++failures;
        ADD_FAILURE() << "concurrent load failed: "
                      << loaded.status().ToString();
        continue;
      }
      size_t groups = static_cast<size_t>(loaded.value()->num_groups());
      EXPECT_TRUE(groups == plain_groups || groups == routed_groups);
      ++loads;
    }
  });
  for (int i = 0; i < 40; ++i) {
    const ModelSnapshot& next =
        i % 2 == 0 ? *routed.value() : *plain.value();
    ASSERT_TRUE(SaveSnapshot(next, path).ok());
  }
  stop.store(true);
  reader.join();
  EXPECT_GT(loads.load(), 0u);
  EXPECT_EQ(failures.load(), 0u);
}

// A forged tree payload whose child pointers loop must be rejected at
// deserialization (monotonic-children check), not hang the iterative
// traversal at query time.
TEST(SnapshotIoTest, ForgedTreeCycleRejected) {
  Rng rng(97);
  Matrix pts(64, 2);
  for (size_t i = 0; i < 64; ++i) {
    pts.At(i, 0) = rng.Gaussian();
    pts.At(i, 1) = rng.Gaussian();
  }
  Result<KdTree> tree = KdTree::Build(pts, 8);
  ASSERT_TRUE(tree.ok());
  BinaryWriter w;
  tree.value().SerializeTo(&w);
  {
    BinaryReader r(w.buffer());
    EXPECT_TRUE(KdTree::DeserializeFrom(&r).ok());
  }
  // Walk the wire layout to node_left_[0] and point it back at node 0.
  std::string bytes = w.buffer();
  auto read_u64 = [&](size_t off) {
    uint64_t v = 0;
    for (int b = 0; b < 8; ++b) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[off + b]))
           << (8 * b);
    }
    return v;
  };
  size_t off = 0;
  uint64_t rows = read_u64(off);
  uint64_t cols = read_u64(off + 8);
  off += 16 + rows * cols * 8;          // points matrix
  off += 8 + read_u64(off) * 8;         // order
  off += 8 + read_u64(off) * 8;         // node_begin
  off += 8 + read_u64(off) * 8;         // node_end
  off += 8;                             // node_left length
  bytes[off] = 0;                       // node_left_[0] = 0 (self-cycle)
  bytes[off + 1] = 0;
  bytes[off + 2] = 0;
  bytes[off + 3] = 0;
  BinaryReader r(bytes);
  Result<KdTree> forged = KdTree::DeserializeFrom(&r);
  ASSERT_FALSE(forged.ok());
  EXPECT_EQ(forged.status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotIoTest, ProbeReportsSignatureCheaply) {
  std::string path = TestTempPath("snapshot_probe.bin");
  std::string bytes = SaveReferenceSnapshot(path);
  Result<SnapshotFileSignature> sig = ProbeSnapshotFile(path);
  ASSERT_TRUE(sig.ok()) << sig.status().ToString();
  EXPECT_EQ(sig.value().file_size, bytes.size());
  EXPECT_EQ(sig.value().format_version, kSnapshotFormatVersion);
  EXPECT_EQ(sig.value().file_size,
            8 + 12 + sig.value().payload_size + 8);
  // Same bytes re-saved -> same checksum; different snapshot -> different.
  Result<SnapshotFileSignature> again = ProbeSnapshotFile(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(sig.value().checksum, again.value().checksum);
  EXPECT_FALSE(ProbeSnapshotFile(TestTempPath("missing_probe.bin")).ok());
  std::string garbage_path = TestTempPath("probe_garbage.bin");
  ASSERT_TRUE(WriteFileBytes(garbage_path, "definitely not a snapshot").ok());
  EXPECT_FALSE(ProbeSnapshotFile(garbage_path).ok());
}

}  // namespace
}  // namespace fairdrift
