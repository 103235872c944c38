#include "core/deployment.h"

#include <utility>

namespace fairdrift {

Result<std::shared_ptr<const ModelSnapshot>> BuildSnapshot(
    const Dataset& train, const Dataset& val, const TrainSpec& spec,
    FitStageSeconds* stages) {
  if (spec.method == Method::kMultiModel) {
    // Statically unfreezable (membership routing needs the group
    // attribute, which serving requests don't carry) — reject before
    // spending the training work Freeze would discard.
    return Status::FailedPrecondition(
        "BuildSnapshot: MULTI deploys by group membership, which serving "
        "requests cannot provide (use DIFFAIR's conformance routing)");
  }
  Result<FittedArtifacts> artifacts = Fit(train, val, spec);
  if (!artifacts.ok()) return artifacts.status();
  if (stages != nullptr) *stages = artifacts->stage_seconds;
  return Freeze(std::move(artifacts).value());
}

Result<std::shared_ptr<const ModelSnapshot>> BuildSnapshot(
    const Dataset& train, const TrainSpec& spec) {
  // Reference overload: no validation split, and no copy of `train`.
  Dataset empty_val;
  return BuildSnapshot(train, empty_val, spec);
}

Result<std::shared_ptr<const ModelSnapshot>> BuildSnapshotFromRecommendation(
    const Dataset& train, const Recommendation& recommendation,
    TrainSpec spec) {
  spec.method = recommendation.method == RecommendedMethod::kDiffair
                    ? Method::kDiffair
                    : Method::kConfair;
  return BuildSnapshot(train, spec);
}

}  // namespace fairdrift
