// Tests for the artifact-centric training API (core/artifacts.h).
//
// The contract under test: one Fit() call produces artifacts that serve
// *both* consumers — Evaluate (the offline experiment protocol) and
// Freeze (the serving snapshot) — with no retraining anywhere, and the
// frozen snapshot scores exactly what the fitted models predict.

#include "core/artifacts.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/pipeline.h"
#include "data/split.h"
#include "kde/kde_cache.h"
#include "util/rng.h"

namespace fairdrift {
namespace {

Dataset MakeData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x0(n);
  std::vector<double> x1(n);
  std::vector<double> x2(n);
  std::vector<int> cat(n);
  std::vector<int> labels(n);
  std::vector<int> groups(n);
  for (size_t i = 0; i < n; ++i) {
    int g = rng.Bernoulli(0.35) ? 1 : 0;
    double shift = g == 1 ? 0.6 : -0.6;
    x0[i] = rng.Gaussian(shift, 1.0);
    x1[i] = rng.Gaussian(-shift, 1.1);
    x2[i] = rng.Gaussian(0.0, 0.9);
    cat[i] = static_cast<int>(rng.UniformInt(0, 2));
    labels[i] = x0[i] - 0.4 * x1[i] + rng.Gaussian(0.0, 0.7) > 0.0 ? 1 : 0;
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

/// Request rows (schema layout) for the tuples of `data` — the bridge
/// between an offline split and the serving row contract.
Matrix RowsOf(const Dataset& data) {
  Matrix rows(data.size(), data.num_features());
  for (size_t j = 0; j < data.num_features(); ++j) {
    for (size_t i = 0; i < data.size(); ++i) {
      rows.At(i, j) = data.column(j).ValueAsDouble(i);
    }
  }
  return rows;
}

TrainValTest Split(const Dataset& data, uint64_t seed) {
  Rng rng(seed);
  Result<TrainValTest> split = SplitTrainValTest(data, &rng);
  EXPECT_TRUE(split.ok());
  return split.ok() ? std::move(split).value() : TrainValTest{};
}

// RunPipelineOnSplit is a thin Fit + Evaluate; the pipeline result must
// match a hand-rolled Fit/Evaluate with the same rng stream exactly.
TEST(ArtifactsTest, PipelineIsFitPlusEvaluate) {
  Dataset data = MakeData(600, 11);
  TrainValTest split = Split(data, 13);

  PipelineOptions options;
  options.method = Method::kConfair;
  options.tune_confair = false;
  options.confair.alpha_u = 1.0;
  options.confair.alpha_w = 0.5;

  Rng rng_pipeline(7);
  Result<PipelineResult> pipeline =
      RunPipelineOnSplit(split, options, &rng_pipeline);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  Rng rng_direct(7);
  Result<FittedArtifacts> artifacts = Fit(split, options, &rng_direct);
  ASSERT_TRUE(artifacts.ok()) << artifacts.status().ToString();
  Result<FairnessReport> report = Evaluate(artifacts.value(), split.test);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(pipeline.value().report.di_star, report.value().di_star);
  EXPECT_EQ(pipeline.value().report.aod_star, report.value().aod_star);
  EXPECT_EQ(pipeline.value().report.balanced_accuracy,
            report.value().balanced_accuracy);
  EXPECT_EQ(pipeline.value().report.accuracy, report.value().accuracy);
  EXPECT_EQ(pipeline.value().models_trained,
            artifacts.value().models_trained);
}

// Every evaluation method runs through Fit + Evaluate.
TEST(ArtifactsTest, AllMethodsFitAndEvaluate) {
  Dataset data = MakeData(600, 17);
  TrainValTest split = Split(data, 19);
  const Method methods[] = {
      Method::kNoIntervention, Method::kKamiran,  Method::kConfair,
      Method::kOmnifair,       Method::kCapuchin, Method::kMultiModel,
      Method::kDiffair,
  };
  for (Method method : methods) {
    TrainSpec spec;
    spec.method = method;
    spec.tune_confair = false;  // keep the loop fast
    Rng rng(23);
    Result<FittedArtifacts> artifacts = Fit(split, spec, &rng);
    ASSERT_TRUE(artifacts.ok())
        << MethodName(method) << ": " << artifacts.status().ToString();
    Result<FairnessReport> report = Evaluate(artifacts.value(), split.test);
    ASSERT_TRUE(report.ok())
        << MethodName(method) << ": " << report.status().ToString();
    EXPECT_GT(report.value().balanced_accuracy, 0.4) << MethodName(method);
  }
}

// One Fit serves both consumers: the frozen snapshot scores exactly what
// the fitted model predicts — no second training anywhere.
TEST(ArtifactsTest, FreezeScoresMatchFittedModel) {
  Dataset data = MakeData(500, 29);
  TrainValTest split = Split(data, 31);
  TrainSpec spec = ServingSpec(Method::kConfair);
  Result<FittedArtifacts> artifacts = Fit(split, spec);
  ASSERT_TRUE(artifacts.ok()) << artifacts.status().ToString();
  EXPECT_EQ(artifacts.value().models_trained, 1);

  // Expected probabilities straight from the fitted model, computed
  // before Freeze consumes it.
  Matrix requests = RowsOf(split.test);
  Result<Matrix> x = artifacts.value().encoder.Transform(split.test);
  ASSERT_TRUE(x.ok());
  const Classifier* model =
      artifacts.value()
          .models[static_cast<size_t>(artifacts.value().fallback_group)]
          .get();
  Result<std::vector<double>> expected = model->PredictProba(x.value());
  ASSERT_TRUE(expected.ok());

  Result<std::shared_ptr<const ModelSnapshot>> snapshot =
      Freeze(std::move(artifacts).value());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  Result<std::vector<ScoreResult>> scores =
      snapshot.value()->ScoreBatch(requests);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  ASSERT_EQ(scores.value().size(), expected.value().size());
  for (size_t i = 0; i < expected.value().size(); ++i) {
    EXPECT_EQ(scores.value()[i].probability, expected.value()[i])
        << "row " << i;
  }
}

// Membership routing needs the group attribute, which serving requests
// do not carry.
TEST(ArtifactsTest, FreezeRejectsMembershipRouting) {
  Dataset data = MakeData(400, 37);
  TrainValTest split = Split(data, 41);
  TrainSpec spec;
  spec.method = Method::kMultiModel;
  Result<FittedArtifacts> artifacts = Fit(split, spec);
  ASSERT_TRUE(artifacts.ok());
  Result<std::shared_ptr<const ModelSnapshot>> snapshot =
      Freeze(std::move(artifacts).value());
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kFailedPrecondition);
}

// The deployment preset: no tuning, serving artifacts attached.
TEST(ArtifactsTest, ServingSpecDefaults) {
  TrainSpec spec = ServingSpec(Method::kDiffair);
  EXPECT_EQ(spec.method, Method::kDiffair);
  EXPECT_FALSE(spec.tune_confair);
  EXPECT_TRUE(spec.include_profile);
  EXPECT_TRUE(spec.include_density);
  // The experiment defaults stay the paper protocol.
  TrainSpec experiment;
  EXPECT_TRUE(experiment.tune_confair);
  EXPECT_FALSE(experiment.include_profile);
  EXPECT_FALSE(experiment.include_density);
}

// The artifacts expose the intervention's training weights (the
// model-agnostic hand-off of Fig. 7).
TEST(ArtifactsTest, TrainingWeightsExposed) {
  Dataset data = MakeData(500, 43);
  TrainValTest split = Split(data, 47);
  TrainSpec spec;
  spec.method = Method::kKamiran;
  Result<FittedArtifacts> artifacts = Fit(split, spec);
  ASSERT_TRUE(artifacts.ok());
  ASSERT_EQ(artifacts.value().training_weights.size(), split.train.size());
  bool any_reweighed = false;
  for (double w : artifacts.value().training_weights) {
    EXPECT_GT(w, 0.0);
    if (std::abs(w - 1.0) > 1e-9) any_reweighed = true;
  }
  EXPECT_TRUE(any_reweighed);
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// CONFAIR profiles its training data once: Fit attaches the profile the
// weights were derived from instead of profiling the same data again, so
// no density-filter cell is looked up in the KDE cache twice.
TEST(ArtifactsTest, ConfairProfilesOnceAndAttachesTheWeightsProfile) {
  Dataset data = MakeData(800, 53);
  TrainValTest split = Split(data, 59);
  TrainSpec spec = ServingSpec(Method::kConfair);
  GlobalKdeCache().Clear();
  const uint64_t hits_before = GlobalKdeCache().stats().hits;
  Result<FittedArtifacts> artifacts = Fit(split, spec);
  ASSERT_TRUE(artifacts.ok()) << artifacts.status().ToString();
  EXPECT_EQ(GlobalKdeCache().stats().hits, hits_before);
  ASSERT_TRUE(artifacts.value().has_profile);

  Result<GroupLabelProfile> reference =
      GroupLabelProfile::Profile(split.train, spec.confair.profile);
  ASSERT_TRUE(reference.ok());
  const GroupLabelProfile& attached = artifacts.value().profile;
  ASSERT_EQ(attached.num_groups(), reference.value().num_groups());
  ASSERT_EQ(attached.num_classes(), reference.value().num_classes());
  Matrix numeric = split.train.NumericMatrix();
  for (int g = 0; g < attached.num_groups(); ++g) {
    for (int y = 0; y < attached.num_classes(); ++y) {
      const std::optional<ConstraintSet>& got = attached.cell(g, y);
      const std::optional<ConstraintSet>& want = reference.value().cell(g, y);
      ASSERT_EQ(got.has_value(), want.has_value()) << g << "," << y;
      if (!got.has_value()) continue;
      for (size_t i = 0; i < numeric.rows(); ++i) {
        EXPECT_EQ(Bits(got->Violation(numeric.RowPtr(i))),
                  Bits(want->Violation(numeric.RowPtr(i))))
            << "cell (" << g << "," << y << ") row " << i;
      }
    }
  }

  spec.include_profile = false;
  Result<FittedArtifacts> bare = Fit(split, spec);
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  EXPECT_FALSE(bare.value().has_profile);
}

// A NaN outlier quantile has no rank among the training rows; Fit rejects
// it up front. Out-of-range quantiles still clamp to [0, 1].
TEST(ArtifactsTest, FitRejectsNanDensityQuantile) {
  Dataset data = MakeData(300, 61);
  TrainValTest split = Split(data, 67);
  TrainSpec spec = ServingSpec(Method::kNoIntervention);
  spec.density_outlier_quantile = std::numeric_limits<double>::quiet_NaN();
  Result<FittedArtifacts> rejected = Fit(split, spec);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  spec.density_outlier_quantile = 1.5;
  Result<FittedArtifacts> clamped = Fit(split, spec);
  ASSERT_TRUE(clamped.ok()) << clamped.status().ToString();
  std::vector<double> loo = clamped.value().density->LeaveOneOutLogDensityAll(
      clamped.value().density_train);
  EXPECT_EQ(clamped.value().density_floor,
            *std::max_element(loo.begin(), loo.end()));
}

// Fit reports its stage seconds: each non-negative, and together no more
// than the Fit call's own wall time (the stages are disjoint spans of it).
TEST(ArtifactsTest, FitTimesItsStages) {
  Dataset data = MakeData(600, 71);
  for (Method method : {Method::kConfair, Method::kDiffair,
                        Method::kNoIntervention, Method::kMultiModel}) {
    TrainSpec spec = ServingSpec(method);
    const auto start = std::chrono::steady_clock::now();
    Result<FittedArtifacts> fitted = Fit(data, Dataset(), spec);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    ASSERT_TRUE(fitted.ok()) << MethodName(method) << ": "
                             << fitted.status().ToString();
    const FitStageSeconds& stages = fitted.value().stage_seconds;
    EXPECT_GE(stages.encoder, 0.0) << MethodName(method);
    EXPECT_GE(stages.intervention, 0.0) << MethodName(method);
    EXPECT_GT(stages.learner, 0.0) << MethodName(method);
    EXPECT_GT(stages.monitor, 0.0) << MethodName(method);
    EXPECT_LE(stages.encoder + stages.intervention + stages.learner +
                  stages.monitor,
              wall)
        << MethodName(method);
  }
}

TEST(ArtifactsTest, MethodNamesStable) {
  EXPECT_STREQ(MethodName(Method::kNoIntervention), "NO-INT");
  EXPECT_STREQ(MethodName(Method::kMultiModel), "MULTI");
  EXPECT_STREQ(MethodName(Method::kDiffair), "DIFFAIR");
  EXPECT_STREQ(MethodName(Method::kConfair), "CONFAIR");
  EXPECT_STREQ(MethodName(Method::kKamiran), "KAM");
  EXPECT_STREQ(MethodName(Method::kOmnifair), "OMN");
  EXPECT_STREQ(MethodName(Method::kCapuchin), "CAP");
}

}  // namespace
}  // namespace fairdrift
