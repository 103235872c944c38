// Tests for the data generators: the make_classification clone, the seven
// real-world simulators (Fig. 4 statistics), and the Syn drift suite.

#include <gtest/gtest.h>

#include <cmath>

#include "data/encode.h"
#include "data/split.h"
#include "datagen/drift.h"
#include "datagen/realworld.h"
#include "datagen/synthetic.h"
#include "linalg/stats.h"
#include "ml/logistic_regression.h"
#include "util/binary_io.h"

namespace fairdrift {
namespace {

/// FNV-1a over every column's name and values, the labels and the groups.
uint64_t ContentHash(const Dataset& d) {
  BinaryWriter w;
  for (size_t c = 0; c < d.num_features(); ++c) {
    const Column& col = d.column(c);
    w.WriteString(col.name());
    if (col.is_numeric()) {
      w.WriteDoubleVector(col.numeric_values());
    } else {
      w.WriteI32(col.num_categories());
      w.WriteI32Vector(col.codes());
    }
  }
  w.WriteI32Vector(d.labels());
  w.WriteI32Vector(d.groups());
  return Fnv1aHash(w.buffer().data(), w.buffer().size());
}

// ---------------------------------------------------- MakeClassification

TEST(MakeClassificationTest, ShapeAndLabels) {
  SyntheticClassificationSpec spec;
  spec.n_samples = 500;
  spec.n_features = 6;
  spec.n_informative = 3;
  spec.n_redundant = 2;
  Rng rng(120);
  Result<Dataset> d = MakeClassification(spec, &rng);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->size(), 500u);
  EXPECT_EQ(d->num_features(), 6u);
  EXPECT_EQ(d->num_classes(), 2);
}

TEST(MakeClassificationTest, PositiveRateRespected) {
  SyntheticClassificationSpec spec;
  spec.n_samples = 5000;
  spec.positive_rate = 0.3;
  spec.flip_y = 0.0;
  Rng rng(121);
  Result<Dataset> d = MakeClassification(spec, &rng);
  ASSERT_TRUE(d.ok());
  double rate = static_cast<double>(d->LabelCount(1)) / 5000.0;
  EXPECT_NEAR(rate, 0.3, 0.03);
}

TEST(MakeClassificationTest, InformativeFeaturesAreLearnable) {
  SyntheticClassificationSpec spec;
  spec.n_samples = 2000;
  spec.class_sep = 2.0;
  spec.flip_y = 0.0;
  Rng rng(122);
  Result<Dataset> d = MakeClassification(spec, &rng);
  ASSERT_TRUE(d.ok());
  Result<FeatureEncoder> enc = FeatureEncoder::Fit(*d);
  ASSERT_TRUE(enc.ok());
  Result<Matrix> x = enc->Transform(*d);
  ASSERT_TRUE(x.ok());
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(x.value(), d->labels(), {}).ok());
  Result<std::vector<int>> pred = lr.Predict(x.value());
  ASSERT_TRUE(pred.ok());
  double correct = 0.0;
  for (size_t i = 0; i < d->size(); ++i) {
    if (pred.value()[i] == d->labels()[i]) correct += 1.0;
  }
  EXPECT_GT(correct / static_cast<double>(d->size()), 0.85);
}

TEST(MakeClassificationTest, ValidatesSpec) {
  Rng rng(123);
  SyntheticClassificationSpec bad;
  bad.n_features = 2;
  bad.n_informative = 2;
  bad.n_redundant = 1;  // 2 + 1 > 2
  EXPECT_FALSE(MakeClassification(bad, &rng).ok());
  bad = SyntheticClassificationSpec{};
  bad.n_samples = 0;
  EXPECT_FALSE(MakeClassification(bad, &rng).ok());
  bad = SyntheticClassificationSpec{};
  bad.positive_rate = 0.0;
  EXPECT_FALSE(MakeClassification(bad, &rng).ok());
}

// ------------------------------------------------------ Real-world suite

TEST(RealWorldSuiteTest, SevenDatasetsInPaperOrder) {
  const std::vector<RealDatasetSpec>& suite = RealDatasetSuite();
  ASSERT_EQ(suite.size(), 7u);
  EXPECT_EQ(suite[0].name, "MEPS");
  EXPECT_EQ(suite[1].name, "LSAC");
  EXPECT_EQ(suite[2].name, "Credit");
  EXPECT_EQ(suite[3].name, "ACSP");
  EXPECT_EQ(suite[4].name, "ACSH");
  EXPECT_EQ(suite[5].name, "ACSE");
  EXPECT_EQ(suite[6].name, "ACSI");
}

TEST(RealWorldSuiteTest, Fig4StatisticsEncoded) {
  // Spot-check the published Fig. 4 rows.
  const RealDatasetSpec& meps = GetRealDatasetSpec(RealDatasetId::kMeps);
  EXPECT_EQ(meps.full_size, 15675u);
  EXPECT_EQ(meps.n_numeric, 6);
  EXPECT_EQ(meps.n_categorical, 34);
  EXPECT_NEAR(meps.minority_fraction, 0.616, 1e-9);
  EXPECT_NEAR(meps.pos_rate_minority, 0.114, 1e-9);

  const RealDatasetSpec& lsac = GetRealDatasetSpec(RealDatasetId::kLsac);
  EXPECT_EQ(lsac.full_size, 24479u);
  EXPECT_NEAR(lsac.minority_fraction, 0.077, 1e-9);
  EXPECT_NEAR(lsac.pos_rate_minority, 0.566, 1e-9);

  const RealDatasetSpec& credit = GetRealDatasetSpec(RealDatasetId::kCredit);
  EXPECT_EQ(credit.full_size, 120269u);
  EXPECT_EQ(credit.n_categorical, 0);

  const RealDatasetSpec& acsi =
      GetRealDatasetSpec(RealDatasetId::kAcsIncomePoverty);
  EXPECT_EQ(acsi.full_size, 250847u);
  EXPECT_EQ(acsi.n_numeric, 6);
  EXPECT_EQ(acsi.n_categorical, 13);
}

TEST(RealWorldSuiteTest, FindByName) {
  Result<RealDatasetSpec> spec = FindRealDatasetSpec("meps");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "MEPS");
  EXPECT_FALSE(FindRealDatasetSpec("adult").ok());
}

TEST(RealWorldSuiteTest, GeneratedStatisticsMatchSpec) {
  const RealDatasetSpec& spec = GetRealDatasetSpec(RealDatasetId::kLsac);
  Result<Dataset> d = MakeRealWorldLike(spec, 0.5);
  ASSERT_TRUE(d.ok());
  size_t expect_n = static_cast<size_t>(0.5 * spec.full_size);
  EXPECT_NEAR(static_cast<double>(d->size()),
              static_cast<double>(expect_n), 2.0);
  EXPECT_EQ(d->num_features(),
            static_cast<size_t>(spec.n_numeric + spec.n_categorical));
  EXPECT_EQ(d->GetSchema().num_numeric(),
            static_cast<size_t>(spec.n_numeric));

  double minority_frac =
      static_cast<double>(d->GroupCount(kMinorityGroup)) /
      static_cast<double>(d->size());
  EXPECT_NEAR(minority_frac, spec.minority_fraction, 0.02);

  double pos_u = static_cast<double>(d->CellCount(kMinorityGroup, 1)) /
                 static_cast<double>(d->GroupCount(kMinorityGroup));
  // label_noise shifts the observed rate slightly.
  EXPECT_NEAR(pos_u, spec.pos_rate_minority, 0.05);

  double pos_w = static_cast<double>(d->CellCount(kMajorityGroup, 1)) /
                 static_cast<double>(d->GroupCount(kMajorityGroup));
  EXPECT_GT(pos_w, pos_u);  // minority under-favored by construction
}

TEST(RealWorldSuiteTest, GenerationIsDeterministic) {
  const RealDatasetSpec& spec = GetRealDatasetSpec(RealDatasetId::kCredit);
  Result<Dataset> a = MakeRealWorldLike(spec, 0.05);
  Result<Dataset> b = MakeRealWorldLike(spec, 0.05);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->labels(), b->labels());
  EXPECT_EQ(a->column(0).numeric_values(), b->column(0).numeric_values());
}

TEST(RealWorldSuiteTest, DrawsArePinnedBitForBit) {
  // A rewrite of the generator must keep every RNG call and every
  // floating-point expression: any drift here moves every paper run.
  Result<Dataset> meps =
      MakeRealWorldLike(GetRealDatasetSpec(RealDatasetId::kMeps), 0.05);
  ASSERT_TRUE(meps.ok()) << meps.status().ToString();
  EXPECT_EQ(meps->size(), 783u);
  EXPECT_EQ(ContentHash(meps.value()), 0x1faa15f7661cf9f4ull);
  Result<Dataset> credit =
      MakeRealWorldLike(GetRealDatasetSpec(RealDatasetId::kCredit), 0.01);
  ASSERT_TRUE(credit.ok()) << credit.status().ToString();
  EXPECT_EQ(credit->size(), 1202u);
  EXPECT_EQ(ContentHash(credit.value()), 0xbf96897942aa5fc9ull);
}

TEST(RealWorldSuiteTest, ScaleValidation) {
  const RealDatasetSpec& spec = GetRealDatasetSpec(RealDatasetId::kMeps);
  EXPECT_FALSE(MakeRealWorldLike(spec, 0.0).ok());
  EXPECT_FALSE(MakeRealWorldLike(spec, 1.5).ok());
}

// ------------------------------------------------------------ Drift suite

TEST(DriftSuiteTest, FiveSpecsWithIncreasingAngle) {
  std::vector<DriftSpec> suite = SynDriftSuite();
  ASSERT_EQ(suite.size(), 5u);
  for (size_t i = 1; i < suite.size(); ++i) {
    EXPECT_GT(suite[i].angle_degrees, suite[i - 1].angle_degrees);
  }
  EXPECT_EQ(suite[0].name, "Syn1");
  EXPECT_EQ(suite[4].name, "Syn5");
}

TEST(DriftSuiteTest, PaperPopulationShape) {
  Result<Dataset> d = MakeDriftDataset(DriftSpec{});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->size(), 11000u);
  EXPECT_EQ(d->GroupCount(kMajorityGroup), 8000u);
  EXPECT_EQ(d->GroupCount(kMinorityGroup), 3000u);
  // Labels balanced within each group (50% +/- noise).
  double pos_w = static_cast<double>(d->CellCount(kMajorityGroup, 1)) /
                 8000.0;
  double pos_u = static_cast<double>(d->CellCount(kMinorityGroup, 1)) /
                 3000.0;
  EXPECT_NEAR(pos_w, 0.5, 0.03);
  EXPECT_NEAR(pos_u, 0.5, 0.03);
}

TEST(DriftSuiteTest, GroupsOverlapButDrift) {
  Result<Dataset> d = MakeDriftDataset(DriftSpec{});
  ASSERT_TRUE(d.ok());
  Matrix w = d->Subset(d->GroupIndices(kMajorityGroup)).NumericMatrix();
  Matrix u = d->Subset(d->GroupIndices(kMinorityGroup)).NumericMatrix();
  std::vector<double> mean_w = ColumnMeans(w);
  std::vector<double> mean_u = ColumnMeans(u);
  // The minority drifts up X2 and *against* the majority trend on X1
  // (Fig. 10 geometry), while remaining unshifted on the other attributes.
  EXPECT_GT(mean_u[1] - mean_w[1], 0.8);
  EXPECT_LT(mean_u[0] - mean_w[0], -0.8);
  EXPECT_NEAR(mean_u[2], mean_w[2], 0.3);
}

TEST(DriftSuiteTest, SingleModelFailsMinority) {
  DriftSpec spec;
  spec.angle_degrees = 170.0;  // nearly opposing trends
  Result<Dataset> d = MakeDriftDataset(spec);
  ASSERT_TRUE(d.ok());
  Rng rng(124);
  Result<TrainValTest> split = SplitTrainValTest(*d, &rng);
  ASSERT_TRUE(split.ok());
  Result<FeatureEncoder> enc = FeatureEncoder::Fit(split->train);
  ASSERT_TRUE(enc.ok());
  Result<Matrix> x_train = enc->Transform(split->train);
  Result<Matrix> x_test = enc->Transform(split->test);
  ASSERT_TRUE(x_train.ok() && x_test.ok());
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(x_train.value(), split->train.labels(), {}).ok());
  Result<std::vector<int>> pred = lr.Predict(x_test.value());
  ASSERT_TRUE(pred.ok());

  double minority_correct = 0.0;
  double minority_total = 0.0;
  double majority_correct = 0.0;
  double majority_total = 0.0;
  for (size_t i = 0; i < split->test.size(); ++i) {
    bool hit = pred.value()[i] == split->test.labels()[i];
    if (split->test.groups()[i] == kMinorityGroup) {
      minority_total += 1.0;
      if (hit) minority_correct += 1.0;
    } else {
      majority_total += 1.0;
      if (hit) majority_correct += 1.0;
    }
  }
  // Majority well served, minority at or below chance: the paper's Fig. 1
  // phenomenon.
  EXPECT_GT(majority_correct / majority_total, 0.8);
  EXPECT_LT(minority_correct / minority_total, 0.55);
}

TEST(DriftSuiteTest, ValidatesSpec) {
  DriftSpec bad;
  bad.n_majority = 0;
  EXPECT_FALSE(MakeDriftDataset(bad).ok());
  bad = DriftSpec{};
  bad.n_features = 1;
  EXPECT_FALSE(MakeDriftDataset(bad).ok());
}

}  // namespace
}  // namespace fairdrift
