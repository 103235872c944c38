// CONFAIR (Algorithm 2): single-model fairness via conformance-guided
// reweighing.
//
// CONFAIR profiles every (group x label) cell with conformance constraints
// and derives a weight for each training tuple:
//
//   1. skew balancing  —  S(t) += P(Y = y_t) * |G_t| / |G_t ∩ y_t|
//      (line 5 of the pseudo-code; identical weight structure to
//      Kamiran-Calders reweighing), and
//   2. conformance boost — tuples with *zero violation* of their cell's
//      constraints, in the two skew-relevant cells, gain alpha_u
//      (minority) or alpha_w (majority).
//
// Only conforming tuples are boosted, so outliers and noise are never
// amplified — the property behind CONFAIR's monotonic fairness response to
// the intervention degree (paper §IV-A, Figs. 8-9).

#ifndef FAIRDRIFT_CORE_CONFAIR_H_
#define FAIRDRIFT_CORE_CONFAIR_H_

#include <optional>
#include <vector>

#include "core/profile.h"
#include "data/dataset.h"
#include "fairness/metrics.h"
#include "util/status.h"

namespace fairdrift {

/// Which (group x label) cells receive the alpha boosts, derived from the
/// label skew of the data (the paper's pseudo-code fixes
/// minority-positive / majority-negative; we estimate the skew direction
/// from the data as §III-B suggests, so reversed skews and both Equalized
/// Odds directions are handled).
struct ConfairBoostPlan {
  /// Cell boosted by alpha_u (the primary intervention).
  int primary_group = kMinorityGroup;
  int primary_label = 1;
  /// Optional mirror cell boosted by alpha_w (used by the DI objective).
  bool has_secondary = false;
  int secondary_group = kMajorityGroup;
  int secondary_label = 0;
};

/// Intervention configuration for CONFAIR.
struct ConfairOptions {
  /// Intervention degree for the minority group U.
  double alpha_u = 1.0;
  /// Intervention degree for the majority group W (the paper's tuning
  /// protocol sets alpha_w = alpha_u / 2 for the DI objective).
  double alpha_w = 0.5;
  /// Fairness measure the boosts target (decides *which* cells gain
  /// weight; paper §III-B):
  ///   DI      — the under-selected minority cell + the opposite majority
  ///             cell,
  ///   EO-FNR  — the positive cell of the high-FNR group,
  ///   EO-FPR  — the negative cell of the high-FPR group.
  FairnessObjective objective = FairnessObjective::kDisparateImpact;
  /// Conformance-constraint profiling configuration (incl. Algorithm 3).
  ProfileOptions profile;
  /// Explicit boost-cell choice. When unset, PlanBoosts derives the cells
  /// from the label skew of the data; callers that have observed a
  /// baseline model (e.g. the Fig. 8/9 sweeps) can pin the direction of
  /// an Equalized-Odds intervention from its measured FNR/FPR instead.
  std::optional<ConfairBoostPlan> plan_override;
};

/// Decides the boost plan for `data` under `objective`.
Result<ConfairBoostPlan> PlanBoosts(const Dataset& data,
                                    FairnessObjective objective);

/// Detailed output of the reweighing step.
struct ConfairWeights {
  /// One weight per training tuple (the paper's weight attribute S).
  std::vector<double> weights;
  /// Tuples that received the conformance boost in each planned cell.
  size_t boosted_primary = 0;
  size_t boosted_secondary = 0;
  ConfairBoostPlan plan;
  /// The (group x label) profile the boosts were derived from (lines 2-4,
  /// profiled with ConfairOptions::profile). Fit attaches it as the
  /// serving profile instead of profiling the same data again.
  GroupLabelProfile profile;
};

/// Runs Algorithm 2 on `train` and returns the derived weights.
/// Requires binary labels and two groups.
Result<ConfairWeights> ComputeConfairWeights(const Dataset& train,
                                             const ConfairOptions& options);

/// Convenience wrapper: a copy of `train` whose weight attribute carries
/// the CONFAIR weights (the dataset itself is otherwise untouched —
/// the intervention is non-invasive).
Result<Dataset> ConfairReweigh(const Dataset& train,
                               const ConfairOptions& options);

// ---------------------------------------------------------------------
// K-group generalization (paper §II-A, footnote 2: "our approach can be
// easily extended to the general case, where the input data contains
// multiple majority and minority groups").
// ---------------------------------------------------------------------

/// One (group x label) cell whose conforming tuples gain `alpha`.
struct ConfairBoostCell {
  int group = 0;
  int label = 1;
  double alpha = 1.0;
};

/// Derives a K-group disparate-impact plan: the group with the highest
/// positive-label rate is the reference; every other group's positive
/// cell is boosted by `alpha_u` and the reference group's negative cell
/// by `alpha_w`. With two groups this reduces exactly to PlanBoosts'
/// DI plan.
Result<std::vector<ConfairBoostCell>> PlanBoostsMultiGroup(
    const Dataset& data, double alpha_u, double alpha_w);

/// Output of the K-group reweighing.
struct ConfairMultiWeights {
  /// One weight per training tuple.
  std::vector<double> weights;
  /// Conforming tuples boosted in each requested cell (parallel to the
  /// `cells` argument).
  std::vector<size_t> boosted_per_cell;
};

/// Runs the K-group generalization of Algorithm 2: the skew-balancing
/// term of line 5 is applied per (group x label) cell exactly as in the
/// binary case, then every cell in `cells` has its *conforming* tuples
/// (zero CC violation) boosted by the cell's alpha. Cells may repeat; a
/// tuple accumulates every boost its cells grant.
Result<ConfairMultiWeights> ComputeConfairWeightsMultiGroup(
    const Dataset& train, const std::vector<ConfairBoostCell>& cells,
    const ProfileOptions& profile);

}  // namespace fairdrift

#endif  // FAIRDRIFT_CORE_CONFAIR_H_
