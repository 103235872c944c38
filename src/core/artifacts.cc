#include "core/artifacts.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "baselines/kamiran.h"
#include "baselines/multimodel.h"
#include "kde/kde_cache.h"
#include "ml/threshold.h"
#include "util/string_util.h"

namespace fairdrift {

const char* MethodName(Method method) {
  switch (method) {
    case Method::kNoIntervention:
      return "NO-INT";
    case Method::kMultiModel:
      return "MULTI";
    case Method::kDiffair:
      return "DIFFAIR";
    case Method::kConfair:
      return "CONFAIR";
    case Method::kKamiran:
      return "KAM";
    case Method::kOmnifair:
      return "OMN";
    case Method::kCapuchin:
      return "CAP";
  }
  return "?";
}

TrainSpec ServingSpec(Method method) {
  TrainSpec spec;
  spec.method = method;
  // Deployment freezes the supplied intervention degree; the validation
  // searches belong to the offline experiment protocol.
  spec.tune_confair = false;
  spec.include_profile = true;
  spec.include_density = true;
  return spec;
}

namespace {

using StageClock = std::chrono::steady_clock;

double SecondsSince(StageClock::time_point start) {
  return std::chrono::duration<double>(StageClock::now() - start).count();
}

/// Fits the drift-monitor density on the fit data's numeric attributes
/// and derives the outlier floor from that split's own log-densities.
/// The raw matrix stays in the (training-side) artifacts for diagnostics
/// and the legacy-format tests; frozen snapshots no longer retain it —
/// persistence serializes the fitted estimator's flat tree directly.
Status AttachDensityMonitor(const Dataset& fit_data, const TrainSpec& spec,
                            FittedArtifacts* artifacts) {
  Matrix numeric = fit_data.NumericMatrix();
  if (numeric.cols() == 0) return Status::OK();  // nothing to monitor
  Result<std::shared_ptr<const KernelDensity>> fitted = FitThroughCache(
      numeric, spec.density_kde,
      KdeCacheHint{fit_data.version(), 0, kKdeHintSpaceFullDataset});
  if (!fitted.ok()) return fitted.status();
  std::shared_ptr<const KernelDensity> density = std::move(fitted).value();
  // Leave-one-out calibration: a serve-time query never contributes a
  // self kernel term, but a training row's plain LogDensity does (and in
  // small-n / high-d fits that term dominates the sum). Quantiling the
  // self-inflated values would place the floor at roughly the self-term
  // level, flagging a large fraction of genuinely in-distribution
  // traffic — and parking every query in the near-threshold band where
  // bounded classification degenerates to full evaluation. The quantile
  // selection computes only the rows the floor can depend on, with the
  // bits of sorting every row's value (Fit has rejected a NaN quantile).
  Result<double> floor = density->LeaveOneOutLogDensityQuantile(
      numeric, std::clamp(spec.density_outlier_quantile, 0.0, 1.0));
  if (!floor.ok()) return floor.status();
  artifacts->density = std::move(density);
  artifacts->density_floor = floor.value();
  artifacts->density_train = std::move(numeric);
  return Status::OK();
}

/// Fits the final single model on (fit_data, weights) and optionally
/// tunes its decision threshold on val — the one place any single-model
/// method trains its deployed learner.
Status FitSingleModel(const Dataset& fit_data,
                      const std::vector<double>& weights, const Dataset& val,
                      const FeatureEncoder& encoder, bool tune_threshold,
                      Classifier* learner) {
  Result<Matrix> x_train = encoder.Transform(fit_data);
  if (!x_train.ok()) return x_train.status();
  FAIRDRIFT_RETURN_IF_ERROR(
      learner->Fit(x_train.value(), fit_data.labels(), weights));
  if (tune_threshold && !val.empty()) {
    Result<Matrix> x_val = encoder.Transform(val);
    if (!x_val.ok()) return x_val.status();
    Result<std::vector<double>> proba = learner->PredictProba(x_val.value());
    if (!proba.ok()) return proba.status();
    Result<double> thr = TuneThreshold(val.labels(), proba.value());
    if (thr.ok()) learner->set_threshold(thr.value());
  }
  return Status::OK();
}

}  // namespace

Result<FittedArtifacts> Fit(const TrainValTest& split, const TrainSpec& spec,
                            Rng* rng) {
  return Fit(split.train, split.val, spec, rng);
}

Result<FittedArtifacts> Fit(const Dataset& train, const Dataset& val,
                            const TrainSpec& spec, Rng* rng) {
  if (train.empty() || !train.has_labels()) {
    return Status::InvalidArgument(
        "Fit: training split needs rows and labels");
  }
  if (spec.include_density && std::isnan(spec.density_outlier_quantile)) {
    // std::clamp passes NaN through, and no rank of the training rows
    // corresponds to it.
    return Status::InvalidArgument("Fit: density_outlier_quantile is NaN");
  }
  bool needs_groups =
      spec.method != Method::kNoIntervention || spec.include_profile;
  if (needs_groups && !train.has_groups()) {
    return Status::FailedPrecondition(
        "Fit: this method needs a group assignment");
  }

  StageClock::time_point stage = StageClock::now();
  Result<FeatureEncoder> encoder = FeatureEncoder::Fit(train);
  if (!encoder.ok()) return encoder.status();
  const double encoder_s = SecondsSince(stage);

  uint64_t learner_seed = rng != nullptr ? rng->Fork().seed()
                                         : spec.learner_seed;
  std::unique_ptr<Classifier> learner =
      MakeLearner(spec.learner, learner_seed);
  LearnerKind calib_kind = spec.calibration_learner.value_or(spec.learner);
  std::unique_ptr<Classifier> calibration_learner =
      MakeLearner(calib_kind, learner_seed);

  FittedArtifacts artifacts;
  artifacts.spec = spec;
  artifacts.schema = train.GetSchema();
  artifacts.encoder = encoder.value();
  artifacts.stage_seconds.encoder = encoder_s;

  // The dataset the final model(s) actually fit on: `train` for the
  // non-invasive methods, the repaired copy for CAP. Serving artifacts
  // (profile, density monitor) describe this same data.
  const Dataset* fit_data = &train;
  Dataset repaired;

  // The split-model methods train their learners inside the switch; the
  // rest of the switch is the intervention.
  double group_models_s = 0.0;
  stage = StageClock::now();
  switch (spec.method) {
    case Method::kNoIntervention: {
      artifacts.training_weights = train.weights();
      break;
    }

    case Method::kKamiran: {
      Result<std::vector<double>> weights = KamiranWeights(train);
      if (!weights.ok()) return weights.status();
      artifacts.training_weights = std::move(weights).value();
      break;
    }

    case Method::kConfair: {
      ConfairOptions confair = spec.confair;
      if (spec.tune_confair && val.empty()) {
        return Status::FailedPrecondition(
            "Fit: CONFAIR alpha tuning needs a non-empty split.val (or set "
            "tune_confair = false to use the supplied degrees)");
      }
      if (spec.tune_confair) {
        Result<ConfairTuneResult> tuned =
            TuneConfairAlpha(train, val, *calibration_learner, encoder.value(),
                             spec.confair, spec.confair_tune);
        if (!tuned.ok()) return tuned.status();
        confair = tuned.value().options;
        artifacts.tuned_alpha = tuned.value().alpha_u;
        artifacts.models_trained += tuned.value().models_trained;
      } else {
        artifacts.tuned_alpha = confair.alpha_u;
      }
      artifacts.spec.confair = confair;  // resolved degrees travel along
      Result<ConfairWeights> weights = ComputeConfairWeights(train, confair);
      if (!weights.ok()) return weights.status();
      artifacts.training_weights = std::move(weights.value().weights);
      if (spec.include_profile) {
        // The profile the weights came from is the serving profile: same
        // data, same spec.confair.profile (tuning only moves the alphas).
        artifacts.profile = std::move(weights.value().profile);
        artifacts.has_profile = true;
      }
      break;
    }

    case Method::kOmnifair: {
      if (val.empty()) {
        // OMN is model-in-the-loop by design: lambda only exists relative
        // to a validation objective. Fail clearly instead of letting the
        // calibration trip over an empty dataset's schema.
        return Status::FailedPrecondition(
            "Fit: OMN calibrates lambda on a validation split; supply a "
            "non-empty split.val");
      }
      Result<OmnifairResult> calibrated =
          OmnifairCalibrate(train, val, *calibration_learner, encoder.value(),
                            spec.omnifair);
      if (!calibrated.ok()) return calibrated.status();
      artifacts.tuned_lambda = calibrated.value().lambda;
      artifacts.models_trained += calibrated.value().models_trained;
      artifacts.training_weights = std::move(calibrated).value().weights;
      break;
    }

    case Method::kCapuchin: {
      Rng cap_rng = rng != nullptr ? rng->Fork() : Rng(learner_seed);
      Result<Dataset> r = CapuchinRepair(train, &cap_rng, spec.capuchin);
      if (!r.ok()) return r.status();
      repaired = std::move(r).value();
      // The repaired data replaces the training set (invasive); the
      // encoder stays fitted on the original schema, which is unchanged.
      fit_data = &repaired;
      artifacts.training_weights = repaired.weights();
      break;
    }

    case Method::kMultiModel: {
      const StageClock::time_point models_start = StageClock::now();
      Result<GroupModelSet> models =
          TrainGroupModels(train, val, *learner, encoder.value(),
                           spec.tune_threshold, "MULTIMODEL");
      if (!models.ok()) return models.status();
      group_models_s = SecondsSince(models_start);
      artifacts.models = std::move(models.value().models);
      artifacts.fallback_group = models.value().fallback_group;
      artifacts.route = ServingRoute::kGroupMembership;
      artifacts.training_weights = train.weights();
      artifacts.models_trained = train.num_groups();
      break;
    }

    case Method::kDiffair: {
      // Lines 4-8: constraints per (group x label) cell, then lines 9-10:
      // one model per group.
      Result<GroupLabelProfile> profile =
          GroupLabelProfile::Profile(train, spec.diffair.profile);
      if (!profile.ok()) return profile.status();
      artifacts.profile = std::move(profile).value();
      artifacts.has_profile = true;
      const StageClock::time_point models_start = StageClock::now();
      Result<GroupModelSet> models =
          TrainGroupModels(train, val, *learner, encoder.value(),
                           spec.diffair.tune_thresholds, "DIFFAIR");
      if (!models.ok()) return models.status();
      group_models_s = SecondsSince(models_start);
      artifacts.models = std::move(models.value().models);
      artifacts.fallback_group = models.value().fallback_group;
      artifacts.route = ServingRoute::kConformance;
      artifacts.training_weights = train.weights();
      artifacts.models_trained = train.num_groups();
      break;
    }
  }

  artifacts.stage_seconds.intervention = SecondsSince(stage) - group_models_s;
  artifacts.stage_seconds.learner = group_models_s;

  // Single-model methods: one learner fit on the intervention's weights.
  if (artifacts.models.empty()) {
    stage = StageClock::now();
    FAIRDRIFT_RETURN_IF_ERROR(FitSingleModel(*fit_data,
                                             artifacts.training_weights, val,
                                             encoder.value(),
                                             spec.tune_threshold,
                                             learner.get()));
    artifacts.models.push_back(std::move(learner));
    artifacts.fallback_group = 0;
    artifacts.route = ServingRoute::kSingleModel;
    artifacts.stage_seconds.learner += SecondsSince(stage);
  }

  // Optional serving artifacts. DIFFAIR and CONFAIR already hold theirs.
  if (spec.include_profile && !artifacts.has_profile) {
    stage = StageClock::now();
    Result<GroupLabelProfile> profile =
        GroupLabelProfile::Profile(*fit_data, spec.profile);
    if (!profile.ok()) return profile.status();
    artifacts.profile = std::move(profile).value();
    artifacts.has_profile = true;
    artifacts.stage_seconds.intervention += SecondsSince(stage);
  }
  if (spec.include_density) {
    stage = StageClock::now();
    FAIRDRIFT_RETURN_IF_ERROR(
        AttachDensityMonitor(*fit_data, spec, &artifacts));
    artifacts.stage_seconds.monitor = SecondsSince(stage);
  }
  return artifacts;
}

Result<FairnessReport> Evaluate(const FittedArtifacts& artifacts,
                                const Dataset& test) {
  if (test.empty()) {
    return Status::InvalidArgument("Evaluate: empty test split");
  }
  Result<Matrix> x = artifacts.encoder.Transform(test);
  if (!x.ok()) return x.status();

  std::vector<int> pred(test.size());
  switch (artifacts.route) {
    case ServingRoute::kSingleModel: {
      const Classifier* model =
          artifacts.models[static_cast<size_t>(artifacts.fallback_group)]
              .get();
      Result<std::vector<int>> p = model->Predict(x.value());
      if (!p.ok()) return p.status();
      pred = std::move(p).value();
      break;
    }

    case ServingRoute::kGroupMembership:
    case ServingRoute::kConformance: {
      std::vector<int> route;
      if (artifacts.route == ServingRoute::kConformance) {
        Matrix numeric = test.NumericMatrix();
        route = ConformanceRoute(artifacts.profile, artifacts.models, numeric,
                                 artifacts.spec.diffair.routing,
                                 artifacts.fallback_group);
      } else {
        if (!test.has_groups()) {
          return Status::FailedPrecondition(
              "Evaluate: membership routing needs serving groups");
        }
        route = RouteByMembership(test.groups(), artifacts.models,
                                  artifacts.fallback_group);
      }
      Result<RoutedPredictions> predictions =
          GatherRoutedPredictions(artifacts.models, route, x.value());
      if (!predictions.ok()) return predictions.status();
      pred = std::move(predictions.value().labels);
      break;
    }
  }
  return EvaluateFairness(test.labels(), pred, test.groups());
}

Result<std::shared_ptr<const ModelSnapshot>> Freeze(
    FittedArtifacts artifacts) {
  if (artifacts.route == ServingRoute::kGroupMembership) {
    return Status::FailedPrecondition(
        "Freeze: membership routing needs the group attribute, which "
        "serving requests do not carry (use DIFFAIR's conformance routing)");
  }
  SnapshotParts parts;
  parts.schema = std::move(artifacts.schema);
  parts.encoder = std::move(artifacts.encoder);
  parts.models = std::move(artifacts.models);
  parts.routed = artifacts.route == ServingRoute::kConformance;
  parts.routing = artifacts.spec.diffair.routing;
  parts.fallback_group = artifacts.fallback_group;
  parts.profile = std::move(artifacts.profile);
  parts.has_profile = artifacts.has_profile;
  parts.density = std::move(artifacts.density);
  parts.density_floor = artifacts.density_floor;
  parts.density_options = artifacts.spec.density_kde;
  parts.monitor = artifacts.spec.monitor;
  if (!artifacts.spec.audit_group_field.empty()) {
    // Resolve against parts.schema (the schema moved above) so the index
    // matches exactly what the snapshot will serve with.
    int idx = parts.schema.FindField(artifacts.spec.audit_group_field);
    if (idx < 0) {
      return Status::NotFound("Freeze: audit group field '" +
                              artifacts.spec.audit_group_field +
                              "' is not in the schema");
    }
    if (parts.schema.field(static_cast<size_t>(idx)).type ==
        ColumnType::kNumeric) {
      return Status::InvalidArgument("Freeze: audit group field '" +
                                     artifacts.spec.audit_group_field +
                                     "' must be categorical");
    }
    parts.group_field = idx;
  }
  return ModelSnapshot::Create(std::move(parts));
}

}  // namespace fairdrift
