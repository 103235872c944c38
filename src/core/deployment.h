// Snapshot construction: Fit + Freeze in one call, for the serving path.
//
// BuildSnapshot trains the requested intervention on a training split
// through the same Fit() entry point the evaluation pipeline uses (see
// core/artifacts.h — every intervention is trained exactly once in the
// library) and freezes the fitted artifacts — models, (group x label)
// profile, encoder, and an optional training-density drift monitor —
// into a ModelSnapshot that a ScoringServer can swap in atomically.
// Persist the result with serve/snapshot_io.h to hand it to a serving
// process.
//
// BuildSnapshotFromRecommendation closes the advisor loop: measure drift
// on fresh data, let the advisor pick the intervention, freeze it, swap
// it in — refit-free serving with drift-driven retraining.

#ifndef FAIRDRIFT_CORE_DEPLOYMENT_H_
#define FAIRDRIFT_CORE_DEPLOYMENT_H_

#include <memory>

#include "core/advisor.h"
#include "core/artifacts.h"
#include "data/dataset.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace fairdrift {

/// Trains `spec.method` on `train` and freezes the fitted artifacts.
/// Requires labels (and groups for the profiled / routed variants).
/// `spec` is honored verbatim — start from ServingSpec() for the
/// deployment defaults (profile + density monitor, no tuning). Methods
/// that calibrate on a validation split (OMN always; CONFAIR with
/// tune_confair) need the overload below.
Result<std::shared_ptr<const ModelSnapshot>> BuildSnapshot(
    const Dataset& train, const TrainSpec& spec = ServingSpec());

/// BuildSnapshot with a validation split for the calibrating methods
/// (OMN lambda, tuned CONFAIR alpha, threshold tuning). When `stages` is
/// set it receives the Fit call's stage seconds (FittedArtifacts).
Result<std::shared_ptr<const ModelSnapshot>> BuildSnapshot(
    const Dataset& train, const Dataset& val, const TrainSpec& spec,
    FitStageSeconds* stages = nullptr);

/// Freezes the intervention the advisor recommended for `train`:
/// kConfair -> Method::kConfair, kDiffair -> Method::kDiffair
/// (overriding `spec.method`).
Result<std::shared_ptr<const ModelSnapshot>> BuildSnapshotFromRecommendation(
    const Dataset& train, const Recommendation& recommendation,
    TrainSpec spec = ServingSpec());

}  // namespace fairdrift

#endif  // FAIRDRIFT_CORE_DEPLOYMENT_H_
