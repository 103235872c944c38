// Unit tests for the paper's core algorithms: Algorithm 3 (density
// filter), (group x label) profiling, CONFAIR (Algorithm 2), DIFFAIR
// (Algorithm 1), and the alpha tuner.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/confair.h"
#include "core/density_filter.h"
#include "core/diffair.h"
#include "core/profile.h"
#include "core/tuning.h"
#include "data/split.h"
#include "datagen/drift.h"
#include "datagen/realworld.h"
#include "fairness/report.h"
#include "linalg/stats.h"
#include "ml/logistic_regression.h"
#include "util/rng.h"

namespace fairdrift {
namespace {

/// Two-group dataset with covariate drift and label skew (minority skews
/// negative), plus a dense core and sparse outliers per cell.
Dataset DriftedDataset(size_t n = 1200, uint64_t seed = 90) {
  Rng rng(seed);
  std::vector<double> x1(n);
  std::vector<double> x2(n);
  std::vector<int> labels(n);
  std::vector<int> groups(n);
  for (size_t i = 0; i < n; ++i) {
    bool minority = rng.Bernoulli(0.25);
    int y = rng.Bernoulli(minority ? 0.25 : 0.6) ? 1 : 0;
    double cx = (y == 1 ? 1.2 : -1.2) + (minority ? 1.5 : 0.0);
    double cy = minority ? 1.0 : -1.0;
    // 10% of tuples are far outliers.
    double spread = rng.Bernoulli(0.1) ? 6.0 : 0.8;
    x1[i] = rng.Gaussian(cx, spread);
    x2[i] = rng.Gaussian(cy, spread);
    labels[i] = y;
    groups[i] = minority ? 1 : 0;
  }
  Dataset d;
  EXPECT_TRUE(d.AddNumericColumn("x1", x1).ok());
  EXPECT_TRUE(d.AddNumericColumn("x2", x2).ok());
  EXPECT_TRUE(d.SetLabels(labels, 2).ok());
  EXPECT_TRUE(d.SetGroups(groups).ok());
  return d;
}

// --------------------------------------------------------- DensityFilter

TEST(DensityFilterTest, KeepsRequestedFractionPerCell) {
  Dataset d = DriftedDataset(2000, 91);
  DensityFilterOptions opts;
  opts.keep_fraction = 0.2;
  opts.min_cell_size = 1;
  Result<Dataset> filtered = ApplyDensityFilter(d, opts);
  ASSERT_TRUE(filtered.ok());
  for (int g = 0; g < 2; ++g) {
    for (int y = 0; y < 2; ++y) {
      size_t orig = d.CellCount(g, y);
      size_t kept = filtered->CellCount(g, y);
      size_t expect = static_cast<size_t>(
          std::ceil(0.2 * static_cast<double>(orig)));
      EXPECT_EQ(kept, expect) << "cell (" << g << "," << y << ")";
    }
  }
}

TEST(DensityFilterTest, KeptTuplesAreDenserThanDropped) {
  Dataset d = DriftedDataset(1500, 92);
  DensityFilterOptions opts;
  opts.keep_fraction = 0.3;
  Result<std::vector<size_t>> kept_idx = DensityFilterIndices(d, opts);
  ASSERT_TRUE(kept_idx.ok());
  // The filtered set must have smaller attribute variance than the input
  // (outliers removed) within each cell.
  Dataset filtered = d.Subset(kept_idx.value());
  Matrix orig_cell = d.Subset(d.CellIndices(0, 1)).NumericMatrix();
  Matrix kept_cell = filtered.Subset(filtered.CellIndices(0, 1)).NumericMatrix();
  std::vector<double> sd_orig = ColumnStdDevs(orig_cell);
  std::vector<double> sd_kept = ColumnStdDevs(kept_cell);
  EXPECT_LT(sd_kept[0], sd_orig[0]);
  EXPECT_LT(sd_kept[1], sd_orig[1]);
}

TEST(DensityFilterTest, MinCellSizeGuard) {
  Dataset d = DriftedDataset(300, 93);
  DensityFilterOptions opts;
  opts.keep_fraction = 0.01;  // would keep ~1 tuple per cell
  opts.min_cell_size = 8;
  Result<Dataset> filtered = ApplyDensityFilter(d, opts);
  ASSERT_TRUE(filtered.ok());
  for (int g = 0; g < 2; ++g) {
    for (int y = 0; y < 2; ++y) {
      if (d.CellCount(g, y) >= 8) {
        EXPECT_GE(filtered->CellCount(g, y), 8u);
      }
    }
  }
}

TEST(DensityFilterTest, ValidatesInput) {
  Dataset d = DriftedDataset(100, 94);
  DensityFilterOptions opts;
  opts.keep_fraction = 0.0;
  EXPECT_FALSE(DensityFilterIndices(d, opts).ok());
  opts.keep_fraction = 1.5;
  EXPECT_FALSE(DensityFilterIndices(d, opts).ok());
  opts.keep_fraction = std::numeric_limits<double>::quiet_NaN();
  Result<std::vector<size_t>> nan_fraction = DensityFilterIndices(d, opts);
  ASSERT_FALSE(nan_fraction.ok());
  EXPECT_EQ(nan_fraction.status().code(), StatusCode::kInvalidArgument);
  Dataset no_groups;
  ASSERT_TRUE(no_groups.AddNumericColumn("x", {1, 2}).ok());
  EXPECT_FALSE(DensityFilterIndices(no_groups, {}).ok());
}

TEST(DensityFilterTest, FullFractionKeepsEverything) {
  Dataset d = DriftedDataset(400, 95);
  DensityFilterOptions opts;
  opts.keep_fraction = 1.0;
  Result<std::vector<size_t>> kept = DensityFilterIndices(d, opts);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->size(), d.size());
}

/// Cells of very different sizes, rows interleaved at random: one large
/// cell, twenty small ones, one under min_cell_size and one exactly at it
/// (both kept whole), and empty cells in between.
Dataset ManyCellDataset() {
  Rng rng(96);
  std::vector<std::pair<int, int>> cells;
  auto add = [&](int g, int y, size_t count) {
    for (size_t i = 0; i < count; ++i) cells.push_back({g, y});
  };
  add(0, 0, 1500);
  for (int g = 1; g <= 20; ++g) add(g, 1, 20 + 3 * static_cast<size_t>(g));
  add(0, 1, 5);
  add(21, 0, 8);
  rng.Shuffle(&cells);
  std::vector<double> x1, x2;
  std::vector<int> labels, groups;
  for (const auto& [g, y] : cells) {
    double spread = rng.Bernoulli(0.1) ? 5.0 : 0.8;
    x1.push_back(rng.Gaussian(0.1 * g, spread));
    x2.push_back(rng.Gaussian(y == 1 ? 1.0 : -1.0, spread));
    groups.push_back(g);
    labels.push_back(y);
  }
  Dataset d;
  EXPECT_TRUE(d.AddNumericColumn("x1", x1).ok());
  EXPECT_TRUE(d.AddNumericColumn("x2", x2).ok());
  EXPECT_TRUE(d.SetLabels(labels, 2).ok());
  EXPECT_TRUE(d.SetGroups(groups).ok());
  return d;
}

/// Algorithm 3 cell by cell: each cell's own DensityRanking, top k.
std::vector<size_t> PerCellTopK(const Dataset& d,
                                const DensityFilterOptions& opts) {
  std::vector<size_t> kept;
  for (int g = 0; g < d.num_groups(); ++g) {
    for (int y = 0; y < d.num_classes(); ++y) {
      std::vector<size_t> cell = d.CellIndices(g, y);
      size_t k = static_cast<size_t>(
          std::ceil(opts.keep_fraction * static_cast<double>(cell.size())));
      k = std::max(k, std::min(opts.min_cell_size, cell.size()));
      if (k >= cell.size()) {
        kept.insert(kept.end(), cell.begin(), cell.end());
        continue;
      }
      Result<std::vector<size_t>> order =
          DensityRanking(d.Subset(cell).NumericMatrix(), opts.kde);
      EXPECT_TRUE(order.ok());
      for (size_t i = 0; i < k; ++i) kept.push_back(cell[order.value()[i]]);
    }
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

TEST(DensityFilterTest, MatchesPerCellRankingTopK) {
  Dataset d = ManyCellDataset();
  for (bool cached : {true, false}) {
    DensityFilterOptions opts;
    opts.kde.use_fit_cache = cached;
    Result<std::vector<size_t>> kept = DensityFilterIndices(d, opts);
    ASSERT_TRUE(kept.ok()) << kept.status().ToString();
    EXPECT_EQ(kept.value(), PerCellTopK(d, opts)) << "cached=" << cached;

    Dataset filtered = d.Subset(kept.value());
    EXPECT_EQ(filtered.CellCount(0, 0), 300u);  // ceil(0.2 * 1500)
    EXPECT_EQ(filtered.CellCount(0, 1), 5u);    // under min_cell_size
    EXPECT_EQ(filtered.CellCount(21, 0), 8u);   // at min_cell_size
    EXPECT_EQ(filtered.CellCount(20, 1), 16u);  // 80 rows: ceil(0.2 * 80)
  }
}

TEST(DensityFilterTest, MatchesPerCellRankingOnEverySimulatorDataset) {
  for (const RealDatasetSpec& spec : RealDatasetSuite()) {
    Result<Dataset> d = MakeRealWorldLike(spec, 0.1);
    ASSERT_TRUE(d.ok()) << spec.name;
    DensityFilterOptions opts;
    opts.kde.use_fit_cache = false;
    Result<std::vector<size_t>> kept = DensityFilterIndices(d.value(), opts);
    ASSERT_TRUE(kept.ok()) << spec.name << ": " << kept.status().ToString();
    EXPECT_EQ(kept.value(), PerCellTopK(d.value(), opts)) << spec.name;
  }
}

// ----------------------------------------------------------- Profiling

TEST(ProfileTest, AllCellsProfiled) {
  Dataset d = DriftedDataset(1000, 96);
  ProfileOptions opts;
  Result<GroupLabelProfile> p = GroupLabelProfile::Profile(d, opts);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_groups(), 2);
  EXPECT_EQ(p->num_classes(), 2);
  for (int g = 0; g < 2; ++g) {
    EXPECT_TRUE(p->GroupProfiled(g));
    for (int y = 0; y < 2; ++y) {
      EXPECT_TRUE(p->cell(g, y).has_value());
    }
  }
}

TEST(ProfileTest, EmptyCellHasNoConstraints) {
  Dataset d;
  ASSERT_TRUE(d.AddNumericColumn("x", {1, 2, 3, 4}).ok());
  ASSERT_TRUE(d.SetLabels({1, 1, 1, 0}, 2).ok());
  ASSERT_TRUE(d.SetGroups({0, 0, 1, 0}).ok());  // minority has no negatives
  ProfileOptions opts;
  opts.use_density_filter = false;
  Result<GroupLabelProfile> p = GroupLabelProfile::Profile(d, opts);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->cell(1, 1).has_value());
  EXPECT_FALSE(p->cell(1, 0).has_value());
  EXPECT_TRUE(p->GroupProfiled(1));
}

TEST(ProfileTest, MinViolationPicksConformingCell) {
  Dataset d = DriftedDataset(2000, 97);
  ProfileOptions opts;
  Result<GroupLabelProfile> p = GroupLabelProfile::Profile(d, opts);
  ASSERT_TRUE(p.ok());
  // A point at the center of the majority-positive cell: group-0 violation
  // must be far below group-1 violation.
  std::vector<double> maj_pos_center = {1.2, -1.0};
  EXPECT_LT(p->MinViolationForGroup(0, maj_pos_center),
            p->MinViolationForGroup(1, maj_pos_center));
  // And the minority-positive center favors group 1.
  std::vector<double> min_pos_center = {2.7, 1.0};
  EXPECT_LT(p->MinViolationForGroup(1, min_pos_center),
            p->MinViolationForGroup(0, min_pos_center));
}

TEST(ProfileTest, BestLabelForGroupMatchesCellCenter) {
  Dataset d = DriftedDataset(2000, 98);
  ProfileOptions opts;
  Result<GroupLabelProfile> p = GroupLabelProfile::Profile(d, opts);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->BestLabelForGroup(0, {1.2, -1.0}), 1);
  EXPECT_EQ(p->BestLabelForGroup(0, {-1.2, -1.0}), 0);
}

// -------------------------------------------------------------- CONFAIR

TEST(ConfairTest, PlanBoostsDetectsSkew) {
  Dataset d = DriftedDataset(1000, 99);
  Result<ConfairBoostPlan> plan =
      PlanBoosts(d, FairnessObjective::kDisparateImpact);
  ASSERT_TRUE(plan.ok());
  // Minority skews negative here -> boost minority-positive,
  // majority-negative.
  EXPECT_EQ(plan->primary_group, kMinorityGroup);
  EXPECT_EQ(plan->primary_label, 1);
  ASSERT_TRUE(plan->has_secondary);
  EXPECT_EQ(plan->secondary_group, kMajorityGroup);
  EXPECT_EQ(plan->secondary_label, 0);
}

TEST(ConfairTest, PlanBoostsFlipsForReversedSkew) {
  // Minority skews *positive*.
  Rng rng(100);
  size_t n = 600;
  std::vector<double> x(n);
  std::vector<int> labels(n);
  std::vector<int> groups(n);
  for (size_t i = 0; i < n; ++i) {
    bool minority = rng.Bernoulli(0.3);
    labels[i] = rng.Bernoulli(minority ? 0.8 : 0.3) ? 1 : 0;
    groups[i] = minority ? 1 : 0;
    x[i] = rng.Gaussian();
  }
  Dataset d;
  ASSERT_TRUE(d.AddNumericColumn("x", x).ok());
  ASSERT_TRUE(d.SetLabels(labels, 2).ok());
  ASSERT_TRUE(d.SetGroups(groups).ok());
  Result<ConfairBoostPlan> plan =
      PlanBoosts(d, FairnessObjective::kDisparateImpact);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->primary_group, kMinorityGroup);
  EXPECT_EQ(plan->primary_label, 0);
  ASSERT_TRUE(plan->has_secondary);
  EXPECT_EQ(plan->secondary_label, 1);
}

TEST(ConfairTest, EoObjectivesPickDirectionAwareCells) {
  // Minority skews negative: a learner's FNR is high for the minority
  // (boost its positives) while its FPR is high for the majority (boost
  // the majority's negatives). Neither EO objective uses a mirror cell.
  Dataset d = DriftedDataset(800, 101);
  Result<ConfairBoostPlan> fnr =
      PlanBoosts(d, FairnessObjective::kEqualizedOddsFnr);
  ASSERT_TRUE(fnr.ok());
  EXPECT_EQ(fnr->primary_group, kMinorityGroup);
  EXPECT_EQ(fnr->primary_label, 1);
  EXPECT_FALSE(fnr->has_secondary);
  // EO-FPR levels the under-fired group up by emphasizing its positives
  // (the negative-cell mirror carries near-zero loss gradient).
  Result<ConfairBoostPlan> fpr =
      PlanBoosts(d, FairnessObjective::kEqualizedOddsFpr);
  ASSERT_TRUE(fpr.ok());
  EXPECT_EQ(fpr->primary_group, kMinorityGroup);
  EXPECT_EQ(fpr->primary_label, 1);
  EXPECT_FALSE(fpr->has_secondary);
}

TEST(ConfairTest, ZeroAlphaReducesToSkewBalancing) {
  Dataset d = DriftedDataset(800, 102);
  ConfairOptions opts;
  opts.alpha_u = 0.0;
  opts.alpha_w = 0.0;
  Result<ConfairWeights> w = ComputeConfairWeights(d, opts);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->boosted_primary, 0u);
  EXPECT_EQ(w->boosted_secondary, 0u);
  // Line-5 weights coincide with Kamiran-Calders weights.
  for (size_t i = 0; i < d.size(); ++i) {
    int g = d.groups()[i];
    int y = d.labels()[i];
    double expect = (static_cast<double>(d.LabelCount(y)) /
                     static_cast<double>(d.size())) *
                    static_cast<double>(d.GroupCount(g)) /
                    static_cast<double>(d.CellCount(g, y));
    EXPECT_NEAR(w->weights[i], expect, 1e-9);
  }
}

TEST(ConfairTest, OnlyConformingTuplesBoosted) {
  Dataset d = DriftedDataset(1500, 103);
  ConfairOptions opts;
  opts.alpha_u = 2.0;
  opts.alpha_w = 1.0;
  Result<ConfairWeights> w = ComputeConfairWeights(d, opts);
  ASSERT_TRUE(w.ok());
  // Some but not all minority-positive tuples are boosted (outliers are
  // excluded by the conformance requirement).
  size_t minority_pos = d.CellCount(1, 1);
  EXPECT_GT(w->boosted_primary, 0u);
  EXPECT_LT(w->boosted_primary, minority_pos);
  EXPECT_GT(w->boosted_secondary, 0u);
  EXPECT_LT(w->boosted_secondary, d.CellCount(0, 0));
}

TEST(ConfairTest, BoostRaisesMinorityPositiveMass) {
  Dataset d = DriftedDataset(1200, 104);
  ConfairOptions zero;
  zero.alpha_u = 0.0;
  zero.alpha_w = 0.0;
  ConfairOptions boosted;
  boosted.alpha_u = 2.0;
  boosted.alpha_w = 1.0;
  Result<ConfairWeights> w0 = ComputeConfairWeights(d, zero);
  Result<ConfairWeights> w2 = ComputeConfairWeights(d, boosted);
  ASSERT_TRUE(w0.ok() && w2.ok());
  auto cell_mass = [&](const std::vector<double>& w, int g, int y) {
    double acc = 0.0;
    for (size_t i = 0; i < d.size(); ++i) {
      if (d.groups()[i] == g && d.labels()[i] == y) acc += w[i];
    }
    return acc;
  };
  EXPECT_GT(cell_mass(w2->weights, 1, 1), cell_mass(w0->weights, 1, 1));
  EXPECT_GT(cell_mass(w2->weights, 0, 0), cell_mass(w0->weights, 0, 0));
  // Unboosted cells keep their mass.
  EXPECT_NEAR(cell_mass(w2->weights, 1, 0), cell_mass(w0->weights, 1, 0),
              1e-9);
}

TEST(ConfairTest, MonotoneBoostedMassInAlpha) {
  Dataset d = DriftedDataset(1000, 105);
  double prev_mass = 0.0;
  for (double alpha : {0.0, 0.5, 1.0, 2.0, 4.0}) {
    ConfairOptions opts;
    opts.alpha_u = alpha;
    opts.alpha_w = alpha / 2.0;
    Result<ConfairWeights> w = ComputeConfairWeights(d, opts);
    ASSERT_TRUE(w.ok());
    double mass = 0.0;
    for (size_t i = 0; i < d.size(); ++i) {
      if (d.groups()[i] == 1 && d.labels()[i] == 1) mass += w->weights[i];
    }
    EXPECT_GE(mass, prev_mass);
    prev_mass = mass;
  }
}

TEST(ConfairTest, NonInvasive) {
  Dataset d = DriftedDataset(500, 106);
  Result<Dataset> r = ConfairReweigh(d, {});
  ASSERT_TRUE(r.ok());
  // Same tuples, same labels, same groups — only weights differ.
  EXPECT_EQ(r->size(), d.size());
  EXPECT_EQ(r->labels(), d.labels());
  EXPECT_EQ(r->groups(), d.groups());
  EXPECT_EQ(r->column(0).numeric_values(), d.column(0).numeric_values());
}

TEST(ConfairTest, PlanOverrideRespected) {
  Dataset d = DriftedDataset(800, 116);
  ConfairOptions opts;
  opts.alpha_u = 2.0;
  opts.alpha_w = 1.0;
  ConfairBoostPlan plan;
  plan.primary_group = kMajorityGroup;  // deliberately non-default
  plan.primary_label = 1;
  plan.has_secondary = false;
  opts.plan_override = plan;
  Result<ConfairWeights> w = ComputeConfairWeights(d, opts);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->plan.primary_group, kMajorityGroup);
  EXPECT_EQ(w->boosted_secondary, 0u);
  // Only majority-positive tuples can exceed their skew-balancing weight
  // by the boost; minority tuples keep the line-5 weights exactly.
  for (size_t i = 0; i < d.size(); ++i) {
    if (d.groups()[i] == kMinorityGroup) {
      double base = (static_cast<double>(d.LabelCount(d.labels()[i])) /
                     static_cast<double>(d.size())) *
                    static_cast<double>(d.GroupCount(kMinorityGroup)) /
                    static_cast<double>(
                        d.CellCount(kMinorityGroup, d.labels()[i]));
      EXPECT_NEAR(w->weights[i], base, 1e-9);
    }
  }
}

TEST(ConfairTest, RejectsNegativeAlpha) {
  Dataset d = DriftedDataset(200, 107);
  ConfairOptions opts;
  opts.alpha_u = -1.0;
  EXPECT_FALSE(ComputeConfairWeights(d, opts).ok());
}

// -------------------------------------------------------------- DIFFAIR

TEST(DiffairTest, TrainsAndPredictsOnDriftData) {
  Result<Dataset> data = MakeDriftDataset(DriftSpec{});
  ASSERT_TRUE(data.ok());
  Rng rng(108);
  Result<TrainValTest> split = SplitTrainValTest(*data, &rng);
  ASSERT_TRUE(split.ok());
  Result<FeatureEncoder> enc = FeatureEncoder::Fit(split->train);
  ASSERT_TRUE(enc.ok());
  LogisticRegression lr;
  Result<DiffairModel> model =
      DiffairModel::Train(split->train, split->val, lr, enc.value(), {});
  ASSERT_TRUE(model.ok());
  EXPECT_NE(model->group_model(0), nullptr);
  EXPECT_NE(model->group_model(1), nullptr);

  Result<std::vector<int>> pred = model->Predict(split->test);
  ASSERT_TRUE(pred.ok());
  double correct = 0.0;
  double minority_correct = 0.0;
  double minority_total = 0.0;
  for (size_t i = 0; i < split->test.size(); ++i) {
    bool hit = pred.value()[i] == split->test.labels()[i];
    if (hit) correct += 1.0;
    if (split->test.groups()[i] == kMinorityGroup) {
      minority_total += 1.0;
      if (hit) minority_correct += 1.0;
    }
  }
  EXPECT_GT(correct / static_cast<double>(split->test.size()), 0.68);

  // The defining claim: a *single* model fitted to the pooled data serves
  // the minority near (or below) chance under opposing trends, while
  // DIFFAIR's split models serve it clearly better.
  Result<Matrix> x_train = enc->Transform(split->train);
  Result<Matrix> x_test = enc->Transform(split->test);
  ASSERT_TRUE(x_train.ok() && x_test.ok());
  LogisticRegression single;
  ASSERT_TRUE(
      single.Fit(x_train.value(), split->train.labels(), {}).ok());
  Result<std::vector<int>> single_pred = single.Predict(x_test.value());
  ASSERT_TRUE(single_pred.ok());
  double single_minority_correct = 0.0;
  for (size_t i = 0; i < split->test.size(); ++i) {
    if (split->test.groups()[i] == kMinorityGroup &&
        single_pred.value()[i] == split->test.labels()[i]) {
      single_minority_correct += 1.0;
    }
  }
  EXPECT_GT(minority_correct / minority_total,
            single_minority_correct / minority_total + 0.1);
}

TEST(DiffairTest, RoutingIsMembershipFree) {
  // Serving data without the group attribute set still routes: Route()
  // only uses numeric attributes.
  Result<Dataset> data = MakeDriftDataset(DriftSpec{});
  ASSERT_TRUE(data.ok());
  Rng rng(109);
  Result<TrainValTest> split = SplitTrainValTest(*data, &rng);
  ASSERT_TRUE(split.ok());
  Result<FeatureEncoder> enc = FeatureEncoder::Fit(split->train);
  ASSERT_TRUE(enc.ok());
  LogisticRegression lr;
  Result<DiffairModel> model =
      DiffairModel::Train(split->train, split->val, lr, enc.value(), {});
  ASSERT_TRUE(model.ok());

  // Strip groups from the serving data.
  Dataset serving;
  for (size_t j = 0; j < split->test.num_features(); ++j) {
    const Column& c = split->test.column(j);
    ASSERT_TRUE(serving.AddNumericColumn(c.name(), c.numeric_values()).ok());
  }
  Result<std::vector<int>> route = model->Route(serving);
  ASSERT_TRUE(route.ok());
  // Routing should mostly agree with the true (hidden) group under strong
  // drift.
  double agree = 0.0;
  for (size_t i = 0; i < serving.size(); ++i) {
    if (route.value()[i] == split->test.groups()[i]) agree += 1.0;
  }
  EXPECT_GT(agree / static_cast<double>(serving.size()), 0.65);
}

TEST(DiffairTest, EmptyGroupFallsBackGracefully) {
  // All tuples are majority: group 1 has no model, traffic falls back.
  Rng rng(110);
  size_t n = 400;
  std::vector<double> x(n);
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Gaussian();
    labels[i] = x[i] > 0 ? 1 : 0;
  }
  Dataset d;
  ASSERT_TRUE(d.AddNumericColumn("x", x).ok());
  ASSERT_TRUE(d.SetLabels(labels, 2).ok());
  ASSERT_TRUE(d.SetGroups(std::vector<int>(n, 0)).ok());
  Rng rng2(111);
  Result<TrainValTest> split = SplitTrainValTest(d, &rng2);
  ASSERT_TRUE(split.ok());
  Result<FeatureEncoder> enc = FeatureEncoder::Fit(split->train);
  ASSERT_TRUE(enc.ok());
  LogisticRegression lr;
  Result<DiffairModel> model =
      DiffairModel::Train(split->train, split->val, lr, enc.value(), {});
  ASSERT_TRUE(model.ok());
  Result<std::vector<int>> pred = model->Predict(split->test);
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(pred->size(), split->test.size());
}

TEST(DiffairTest, RequiresLabelsAndGroups) {
  Dataset d;
  ASSERT_TRUE(d.AddNumericColumn("x", {1, 2}).ok());
  Result<FeatureEncoder> enc = FeatureEncoder::Fit(d);
  ASSERT_TRUE(enc.ok());
  LogisticRegression lr;
  EXPECT_FALSE(DiffairModel::Train(d, Dataset(), lr, enc.value(), {}).ok());
}

// ---------------------------------------------------------------- Tuning

TEST(TuningTest, FindsAlphaReducingValidationGap) {
  Dataset d = DriftedDataset(3000, 112);
  Rng rng(113);
  Result<TrainValTest> split = SplitTrainValTest(d, &rng);
  ASSERT_TRUE(split.ok());
  Result<FeatureEncoder> enc = FeatureEncoder::Fit(split->train);
  ASSERT_TRUE(enc.ok());
  LogisticRegression lr;
  ConfairOptions base;
  Result<ConfairTuneResult> tuned =
      TuneConfairAlpha(split->train, split->val, lr, enc.value(), base);
  ASSERT_TRUE(tuned.ok());
  EXPECT_GE(tuned->alpha_u, 0.0);
  EXPECT_GT(tuned->models_trained, 5);
  EXPECT_DOUBLE_EQ(tuned->options.alpha_w, tuned->alpha_u / 2.0);

  // The winning gap must not exceed the alpha=0 gap (0 is in the grid).
  ConfairOptions zero = base;
  zero.alpha_u = 0.0;
  zero.alpha_w = 0.0;
  Result<ConfairWeights> w0 = ComputeConfairWeights(split->train, zero);
  ASSERT_TRUE(w0.ok());
  Result<Matrix> x_train = enc->Transform(split->train);
  Result<Matrix> x_val = enc->Transform(split->val);
  ASSERT_TRUE(x_train.ok() && x_val.ok());
  LogisticRegression m0;
  ASSERT_TRUE(m0.Fit(x_train.value(), split->train.labels(), w0->weights).ok());
  Result<std::vector<int>> pred = m0.Predict(x_val.value());
  ASSERT_TRUE(pred.ok());
  Result<FairnessReport> rep0 = EvaluateFairness(
      split->val.labels(), pred.value(), split->val.groups());
  ASSERT_TRUE(rep0.ok());
  double gap0 = ObjectiveGap(rep0->stats, FairnessObjective::kDisparateImpact);
  EXPECT_LE(tuned->validation_gap, gap0 + 1e-9);
}

TEST(TuningTest, EoObjectiveKeepsAlphaWZero) {
  Dataset d = DriftedDataset(1500, 114);
  Rng rng(115);
  Result<TrainValTest> split = SplitTrainValTest(d, &rng);
  ASSERT_TRUE(split.ok());
  Result<FeatureEncoder> enc = FeatureEncoder::Fit(split->train);
  ASSERT_TRUE(enc.ok());
  LogisticRegression lr;
  ConfairOptions base;
  base.objective = FairnessObjective::kEqualizedOddsFnr;
  Result<ConfairTuneResult> tuned =
      TuneConfairAlpha(split->train, split->val, lr, enc.value(), base);
  ASSERT_TRUE(tuned.ok());
  EXPECT_DOUBLE_EQ(tuned->options.alpha_w, 0.0);
}

}  // namespace
}  // namespace fairdrift
