#include "core/confair.h"

#include <cmath>
#include <cstdint>
#include <utility>

#include "util/parallel.h"
#include "util/string_util.h"

namespace fairdrift {

namespace {

// Line 5 of Algorithm 2: S += P(Y=y_t) * |G_t| / |G_t ∩ y_t|, applied per
// tuple. Shared by the binary and the K-group entry points.
void AddSkewBalancing(const Dataset& train, std::vector<double>* weights) {
  double dn = static_cast<double>(train.size());
  std::vector<std::vector<double>> skew(
      static_cast<size_t>(train.num_groups()),
      std::vector<double>(static_cast<size_t>(train.num_classes()), 1.0));
  for (int g = 0; g < train.num_groups(); ++g) {
    double group_count = static_cast<double>(train.GroupCount(g));
    for (int y = 0; y < train.num_classes(); ++y) {
      double cell_count = static_cast<double>(train.CellCount(g, y));
      double label_prob = static_cast<double>(train.LabelCount(y)) / dn;
      if (cell_count > 0.0) {
        skew[static_cast<size_t>(g)][static_cast<size_t>(y)] =
            label_prob * group_count / cell_count;
      }
    }
  }
  const std::vector<int>& labels = train.labels();
  const std::vector<int>& groups = train.groups();
  for (size_t i = 0; i < train.size(); ++i) {
    (*weights)[i] += skew[static_cast<size_t>(groups[i])]
                         [static_cast<size_t>(labels[i])];
  }
}

}  // namespace

Result<ConfairBoostPlan> PlanBoosts(const Dataset& data,
                                    FairnessObjective objective) {
  if (!data.has_labels() || !data.has_groups()) {
    return Status::FailedPrecondition("PlanBoosts: needs labels and groups");
  }
  if (data.num_classes() != 2) {
    return Status::InvalidArgument(
        "PlanBoosts: the boost planner assumes binary labels");
  }
  size_t n_u = data.GroupCount(kMinorityGroup);
  size_t n_w = data.GroupCount(kMajorityGroup);
  if (n_u == 0 || n_w == 0) {
    return Status::InvalidArgument("PlanBoosts: a group is empty");
  }
  double pos_rate_u =
      static_cast<double>(data.CellCount(kMinorityGroup, 1)) /
      static_cast<double>(n_u);
  double pos_rate_w =
      static_cast<double>(data.CellCount(kMajorityGroup, 1)) /
      static_cast<double>(n_w);
  // When the minority skews negative (the paper's running assumption), a
  // learner under-predicts positives for it: high FNR_U and, mirrored,
  // high FPR_W. The boost plan targets the cell whose emphasis closes the
  // objective's gap; a reversed skew flips every choice.
  bool minority_skews_negative = pos_rate_u <= pos_rate_w;

  ConfairBoostPlan plan;
  switch (objective) {
    case FairnessObjective::kDisparateImpact:
      // Raise the under-selected group's positives and the over-selected
      // group's negatives (the pseudo-code's lines 8-11).
      plan.primary_group = kMinorityGroup;
      plan.primary_label = minority_skews_negative ? 1 : 0;
      plan.has_secondary = true;
      plan.secondary_group = kMajorityGroup;
      plan.secondary_label = minority_skews_negative ? 0 : 1;
      break;
    case FairnessObjective::kEqualizedOddsFnr:
      // Lower the FNR of the group that misses its positives: the group
      // whose labels skew negative.
      plan.primary_group =
          minority_skews_negative ? kMinorityGroup : kMajorityGroup;
      plan.primary_label = 1;
      break;
    case FairnessObjective::kEqualizedOddsFpr:
      // Raise the FPR of the group the model under-fires on (the group
      // skewing negative) by emphasizing its positives. Emphasizing the
      // other group's *negatives* looks symmetric but is ineffective: the
      // conforming core of a dominant negative cell is already classified
      // with near-zero loss gradient, so extra weight there barely moves
      // the learner.
      plan.primary_group =
          minority_skews_negative ? kMinorityGroup : kMajorityGroup;
      plan.primary_label = 1;
      break;
  }
  return plan;
}

Result<ConfairWeights> ComputeConfairWeights(const Dataset& train,
                                             const ConfairOptions& options) {
  if (!train.has_labels() || !train.has_groups()) {
    return Status::FailedPrecondition(
        "CONFAIR: training data needs labels and groups");
  }
  if (options.alpha_u < 0.0 || options.alpha_w < 0.0) {
    return Status::InvalidArgument("CONFAIR: alphas must be >= 0");
  }

  ConfairBoostPlan plan_value;
  if (options.plan_override.has_value()) {
    plan_value = *options.plan_override;
  } else {
    Result<ConfairBoostPlan> plan = PlanBoosts(train, options.objective);
    if (!plan.ok()) return plan.status();
    plan_value = plan.value();
  }

  // Lines 2-4: per-cell conformance constraints (with Algorithm 3 inside
  // ProfileOptions when enabled).
  Result<GroupLabelProfile> profile =
      GroupLabelProfile::Profile(train, options.profile);
  if (!profile.ok()) return profile.status();

  size_t n = train.size();
  ConfairWeights out;
  out.plan = plan_value;
  out.profile = std::move(profile).value();
  out.weights.assign(n, 0.0);  // line 1 of the pseudo-code

  // Line 5: skew balancing S += P(Y=y_t) * |G_t| / |G_t ∩ y_t|.
  AddSkewBalancing(train, &out.weights);
  const std::vector<int>& labels = train.labels();
  const std::vector<int>& groups = train.groups();

  // Lines 6-11: boost tuples with zero violation of their cell's
  // constraints, in the objective's target cells. The violation check
  // dominates, so it runs as a parallel scan into per-row marks; weights
  // and counters are then applied sequentially, which keeps the totals
  // identical for every worker count.
  Matrix numeric = train.NumericMatrix();
  if (numeric.cols() == 0) return out;  // no attributes to conform to
  enum : uint8_t { kNoBoost = 0, kPrimary = 1, kSecondary = 2 };
  std::vector<uint8_t> marks(n, kNoBoost);
  ParallelFor(0, n, [&](size_t i) {
    int g = groups[i];
    int y = labels[i];
    bool is_primary = (g == out.plan.primary_group &&
                       y == out.plan.primary_label && options.alpha_u > 0.0);
    bool is_secondary =
        (out.plan.has_secondary && g == out.plan.secondary_group &&
         y == out.plan.secondary_label && options.alpha_w > 0.0);
    if (!is_primary && !is_secondary) return;

    const std::optional<ConstraintSet>& cs = out.profile.cell(g, y);
    if (!cs.has_value()) return;
    if (cs->Violation(numeric.RowPtr(i)) > 0.0) return;  // conforming only
    marks[i] = is_primary ? kPrimary : kSecondary;
  });
  for (size_t i = 0; i < n; ++i) {
    if (marks[i] == kPrimary) {
      out.weights[i] += options.alpha_u;
      ++out.boosted_primary;
    } else if (marks[i] == kSecondary) {
      out.weights[i] += options.alpha_w;
      ++out.boosted_secondary;
    }
  }
  return out;
}

Result<std::vector<ConfairBoostCell>> PlanBoostsMultiGroup(const Dataset& data,
                                                           double alpha_u,
                                                           double alpha_w) {
  if (!data.has_labels() || !data.has_groups()) {
    return Status::FailedPrecondition(
        "PlanBoostsMultiGroup: needs labels and groups");
  }
  if (data.num_classes() != 2) {
    return Status::InvalidArgument(
        "PlanBoostsMultiGroup: the planner assumes binary labels");
  }
  if (alpha_u < 0.0 || alpha_w < 0.0) {
    return Status::InvalidArgument(
        "PlanBoostsMultiGroup: alphas must be >= 0");
  }
  // Reference group: the one whose labels skew toward positives the most
  // (the group every other group's selection rate is levelled toward).
  int reference = -1;
  double best_rate = -1.0;
  std::vector<double> pos_rate(static_cast<size_t>(data.num_groups()), 0.0);
  for (int g = 0; g < data.num_groups(); ++g) {
    size_t count = data.GroupCount(g);
    if (count == 0) {
      return Status::InvalidArgument(
          StrFormat("PlanBoostsMultiGroup: group %d is empty", g));
    }
    pos_rate[static_cast<size_t>(g)] =
        static_cast<double>(data.CellCount(g, 1)) / static_cast<double>(count);
    if (pos_rate[static_cast<size_t>(g)] > best_rate) {
      best_rate = pos_rate[static_cast<size_t>(g)];
      reference = g;
    }
  }
  std::vector<ConfairBoostCell> cells;
  for (int g = 0; g < data.num_groups(); ++g) {
    if (g == reference) continue;
    cells.push_back({g, /*label=*/1, alpha_u});
  }
  if (alpha_w > 0.0) {
    cells.push_back({reference, /*label=*/0, alpha_w});
  }
  return cells;
}

Result<ConfairMultiWeights> ComputeConfairWeightsMultiGroup(
    const Dataset& train, const std::vector<ConfairBoostCell>& cells,
    const ProfileOptions& profile_options) {
  if (!train.has_labels() || !train.has_groups()) {
    return Status::FailedPrecondition(
        "CONFAIR: training data needs labels and groups");
  }
  for (const ConfairBoostCell& cell : cells) {
    if (cell.group < 0 || cell.group >= train.num_groups() ||
        cell.label < 0 || cell.label >= train.num_classes()) {
      return Status::InvalidArgument(
          StrFormat("CONFAIR: boost cell (%d, %d) outside the data's "
                    "%d groups x %d classes",
                    cell.group, cell.label, train.num_groups(),
                    train.num_classes()));
    }
    if (cell.alpha < 0.0) {
      return Status::InvalidArgument("CONFAIR: cell alphas must be >= 0");
    }
  }
  Result<GroupLabelProfile> profile =
      GroupLabelProfile::Profile(train, profile_options);
  if (!profile.ok()) return profile.status();

  ConfairMultiWeights out;
  out.weights.assign(train.size(), 0.0);
  out.boosted_per_cell.assign(cells.size(), 0);
  AddSkewBalancing(train, &out.weights);

  Matrix numeric = train.NumericMatrix();
  if (numeric.cols() == 0) return out;  // no attributes to conform to
  for (size_t c = 0; c < cells.size(); ++c) {
    const ConfairBoostCell& cell = cells[c];
    if (cell.alpha <= 0.0) continue;
    const std::optional<ConstraintSet>& cs =
        profile.value().cell(cell.group, cell.label);
    if (!cs.has_value()) continue;
    // Parallel violation scan over the cell's rows; the weight updates
    // stay sequential so the per-cell counters are deterministic.
    std::vector<size_t> idx = train.CellIndices(cell.group, cell.label);
    std::vector<uint8_t> conforming = ParallelMap<uint8_t>(
        idx.size(), [&](size_t j) -> uint8_t {
          return cs->Violation(numeric.RowPtr(idx[j])) > 0.0 ? 0 : 1;
        });
    for (size_t j = 0; j < idx.size(); ++j) {
      if (!conforming[j]) continue;
      out.weights[idx[j]] += cell.alpha;
      ++out.boosted_per_cell[c];
    }
  }
  return out;
}

Result<Dataset> ConfairReweigh(const Dataset& train,
                               const ConfairOptions& options) {
  Result<ConfairWeights> w = ComputeConfairWeights(train, options);
  if (!w.ok()) return w.status();
  Dataset out = train;
  FAIRDRIFT_RETURN_IF_ERROR(out.SetWeights(std::move(w).value().weights));
  return out;
}

}  // namespace fairdrift
