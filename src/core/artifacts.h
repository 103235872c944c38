// Artifact-centric training API: Fit once, then Evaluate and/or Freeze.
//
// The paper's operational loop is: measure drift, pick an intervention
// (CONFAIR / DIFFAIR / a baseline), train it, then either *evaluate* it
// (the offline experiment protocol of §IV) or *deploy* it (freeze the
// fitted state into an immutable ModelSnapshot a ScoringServer swaps in).
// Historically those two consumers each trained their own models; this
// module makes the fitted state a first-class artifact produced exactly
// once:
//
//   FittedArtifacts artifacts = Fit(split, spec);     // train once
//   FairnessReport  report    = Evaluate(artifacts, split.test);
//   auto            snapshot  = Freeze(std::move(artifacts));
//
// Fit handles every intervention of the evaluation (the unified `Method`
// enum below), the learner families, validation-split tuning (CONFAIR
// alpha, OMN lambda, decision thresholds), and the optional serving
// artifacts (conformance profile, KDE drift monitor). Evaluate and
// Freeze only consume — neither ever trains a model.
//
// Snapshots persist across processes via serve/snapshot_io.h
// (SaveSnapshot / LoadSnapshot), which closes the train/serve split: a
// training job Fits and saves; a serving job loads and swaps.

#ifndef FAIRDRIFT_CORE_ARTIFACTS_H_
#define FAIRDRIFT_CORE_ARTIFACTS_H_

#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "baselines/capuchin.h"
#include "baselines/omnifair.h"
#include "core/confair.h"
#include "core/diffair.h"
#include "core/profile.h"
#include "core/tuning.h"
#include "data/encode.h"
#include "data/split.h"
#include "fairness/report.h"
#include "kde/kde.h"
#include "ml/model.h"
#include "serve/snapshot.h"
#include "util/rng.h"
#include "util/status.h"

namespace fairdrift {

/// Fairness interventions covered by the evaluation (paper §IV
/// "Methods") and by snapshot deployment. This is the library's single
/// method enum: the pipeline, the deployment builders, the CLI, and the
/// figure benches all speak it.
enum class Method {
  kNoIntervention,
  kMultiModel,
  kDiffair,
  kConfair,
  kKamiran,   ///< KAM
  kOmnifair,  ///< OMN
  kCapuchin,  ///< CAP
};

/// Display name ("NO-INT", "MULTI", "DIFFAIR", "CONFAIR", "KAM", "OMN",
/// "CAP").
const char* MethodName(Method method);

/// Everything Fit needs: the intervention, the learner, tuning knobs,
/// and which serving artifacts to attach.
struct TrainSpec {
  Method method = Method::kNoIntervention;
  /// Learner used for the final (deployed) model.
  LearnerKind learner = LearnerKind::kLogisticRegression;
  /// Learner used while calibrating weights (CONFAIR alpha search, OMN
  /// lambda search). Defaults to `learner`; the cross-model experiment of
  /// Fig. 7 sets it to the other family.
  std::optional<LearnerKind> calibration_learner;
  /// Seed for stochastic learners when Fit is called without an Rng.
  uint64_t learner_seed = 42;

  ConfairOptions confair;
  /// Auto-tune CONFAIR's alpha on validation (paper protocol). When false,
  /// `confair.alpha_u/alpha_w` are used as supplied (the paper's
  /// user-specified fast path).
  bool tune_confair = true;
  ConfairTuneOptions confair_tune;

  DiffairOptions diffair;
  OmnifairOptions omnifair;
  CapuchinOptions capuchin;

  /// Tune the final model's decision threshold on validation for balanced
  /// accuracy. Off by default: the paper's learners predict at the
  /// standard 0.5 threshold, and balanced-accuracy tuning would itself act
  /// as a (non-paper) bias correction.
  bool tune_threshold = false;

  // ------------------------------------------------- serving artifacts

  /// Attach the (group x label) conformance profile (margin monitoring
  /// for single-model methods; DIFFAIR always profiles — it routes by
  /// it). Requires training groups.
  bool include_profile = false;
  /// Profile configuration for the single-model methods (CONFAIR uses its
  /// own `confair.profile` so the attached profile matches the constraints
  /// the weights were derived from).
  ProfileOptions profile;

  /// Fit a KernelDensity on the training numeric attributes as the
  /// artifact's drift monitor (resolves through the global KdeCache).
  bool include_density = false;
  KdeOptions density_kde;
  /// Training-split log-density quantile below which a request is
  /// flagged density_outlier.
  double density_outlier_quantile = 0.01;

  /// How the frozen snapshot's density monitor runs at serve time
  /// (exact / bounded / sampled; serve/snapshot.h). Persisted with the
  /// snapshot from format v3 on; the exact default keeps historical
  /// behavior. Ignored without include_density.
  MonitorSpec monitor;

  /// Name of the categorical schema field carrying the sensitive group
  /// id at serve time. When set, Freeze resolves it to a schema index
  /// (snapshot format v4) and every ScoreResult reports the row's group,
  /// which is what lets the serving audit tier (serve/audit/) window
  /// fairness metrics without clients attaching group metadata. Empty =
  /// no serve-time group extraction.
  std::string audit_group_field;
};

/// A TrainSpec preconfigured for deployment: profile + density monitor
/// attached, no validation-split tuning (the historical BuildSnapshot
/// defaults).
TrainSpec ServingSpec(Method method = Method::kConfair);

/// How the fitted models dispatch a serving/evaluation tuple.
enum class ServingRoute {
  kSingleModel,       ///< one model serves everything
  kConformance,       ///< DIFFAIR: most-conforming profiled group's model
  kGroupMembership,   ///< MULTI: the tuple's own group's model
};

/// Wall-clock seconds of Fit's stages. Training-side only: Freeze drops
/// them, so snapshot bytes never depend on them. The stages are disjoint
/// spans of one Fit call, so their sum is at most its wall time.
struct FitStageSeconds {
  double encoder = 0.0;       ///< FeatureEncoder::Fit
  /// The intervention's weights, repair or (group x label) profile — for
  /// CONFAIR the weights and their profile, for DIFFAIR the profile —
  /// including the density filter and any optional serving profile.
  double intervention = 0.0;
  double learner = 0.0;  ///< the deployed model(s)
  double monitor = 0.0;  ///< the KDE drift monitor and its outlier floor
};

/// The product of one Fit call: everything Evaluate and Freeze consume.
/// Move-only (it owns the trained models).
struct FittedArtifacts {
  /// The resolved spec: tuned hyperparameters (CONFAIR alphas, OMN
  /// lambda) written back over the caller's values.
  TrainSpec spec;

  Schema schema;          ///< training-split feature schema
  FeatureEncoder encoder; ///< fitted on the training split

  /// Fitted model(s). Single-model methods put one entry at index
  /// `fallback_group`; the split-model methods hold one entry per group
  /// id (null for groups with no training data).
  std::vector<std::unique_ptr<Classifier>> models;
  ServingRoute route = ServingRoute::kSingleModel;
  int fallback_group = 0;

  /// (group x label) conformance profile; present when the method routes
  /// by conformance or the spec asked for it.
  GroupLabelProfile profile;
  bool has_profile = false;

  /// The per-tuple weights the final model(s) trained on (the paper's
  /// weight attribute S after the intervention; unit weights for the
  /// non-reweighing methods). Exportable via data/weights_io.h.
  std::vector<double> training_weights;

  double tuned_alpha = 0.0;   ///< CONFAIR alpha_u (when tuned)
  double tuned_lambda = 0.0;  ///< OMN lambda (when calibrated)
  int models_trained = 1;     ///< total learner fits (runtime driver)

  /// Drift monitor (when spec.include_density): the fitted density, the
  /// raw training matrix it was fitted on (training-side only — frozen
  /// snapshots persist the fitted tree instead of this copy), and the
  /// outlier floor.
  std::shared_ptr<const KernelDensity> density;
  Matrix density_train;
  double density_floor = -std::numeric_limits<double>::infinity();

  /// Where this Fit call's time went.
  FitStageSeconds stage_seconds;
};

/// Trains `spec.method` on `split.train`, tuning on `split.val` where the
/// spec asks for it (`split.test` is never touched — Fit is a pure
/// training step). When `rng` is supplied the learner seed is forked from
/// it (the experiment protocol); otherwise `spec.learner_seed` is used
/// (the deployment protocol, reproducible across processes).
Result<FittedArtifacts> Fit(const TrainValTest& split, const TrainSpec& spec,
                            Rng* rng = nullptr);

/// Same, without materializing a split: train/val by reference (`val`
/// may be empty — no validation-split tuning happens then). This is the
/// deployment path's entry; it never copies the training data.
Result<FittedArtifacts> Fit(const Dataset& train, const Dataset& val,
                            const TrainSpec& spec, Rng* rng = nullptr);

/// Scores `test` with the fitted models under the artifact's routing rule
/// and reports fairness + utility. Trains nothing.
Result<FairnessReport> Evaluate(const FittedArtifacts& artifacts,
                                const Dataset& test);

/// Freezes the artifacts into an immutable ModelSnapshot for the scoring
/// server (consumes the models — freeze last, after Evaluate/Save).
/// Group-membership routing cannot be frozen: serving requests carry no
/// group attribute (FailedPrecondition).
Result<std::shared_ptr<const ModelSnapshot>> Freeze(FittedArtifacts artifacts);

}  // namespace fairdrift

#endif  // FAIRDRIFT_CORE_ARTIFACTS_H_
