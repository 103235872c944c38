#include "datagen/realworld.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/string_util.h"

namespace fairdrift {

namespace {

constexpr double kPi = 3.14159265358979323846;

std::vector<RealDatasetSpec> BuildSuite() {
  std::vector<RealDatasetSpec> suite;

  // Figures from the paper's Fig. 4; pos_rate_majority, separation and
  // drift magnitudes are modeling choices (DESIGN.md §3) calibrated so
  // that uncorrected models show DI* in the 0.2-0.7 band the paper reports.
  RealDatasetSpec meps;
  meps.name = "MEPS";
  meps.id = RealDatasetId::kMeps;
  meps.full_size = 15675;
  meps.n_numeric = 6;
  meps.n_categorical = 34;
  meps.minority_fraction = 0.616;  // non-White majority of the population
  meps.pos_rate_minority = 0.114;  // high utilization
  meps.pos_rate_majority = 0.26;
  meps.class_sep = 1.3;
  meps.group_drift = 2.8;
  meps.bias_shift = 0.2;
  meps.trend_angle_degrees = 30;
  meps.seed = 11;
  suite.push_back(meps);

  RealDatasetSpec lsac;
  lsac.name = "LSAC";
  lsac.id = RealDatasetId::kLsac;
  lsac.full_size = 24479;
  lsac.n_numeric = 6;
  lsac.n_categorical = 4;
  lsac.minority_fraction = 0.077;
  lsac.pos_rate_minority = 0.566;  // passing the bar
  lsac.pos_rate_majority = 0.85;
  lsac.class_sep = 1.4;
  lsac.group_drift = 2.2;
  lsac.bias_shift = 0.4;
  lsac.trend_angle_degrees = 40;
  lsac.seed = 13;
  suite.push_back(lsac);

  RealDatasetSpec credit;
  credit.name = "Credit";
  credit.id = RealDatasetId::kCredit;
  credit.full_size = 120269;
  credit.n_numeric = 6;
  credit.n_categorical = 0;
  credit.minority_fraction = 0.137;  // age < 35
  credit.pos_rate_minority = 0.107;
  credit.pos_rate_majority = 0.23;
  credit.class_sep = 1.2;
  credit.group_drift = 2.0;
  credit.bias_shift = 0.6;
  credit.trend_angle_degrees = 25;
  credit.seed = 17;
  suite.push_back(credit);

  RealDatasetSpec acsp;
  acsp.name = "ACSP";
  acsp.id = RealDatasetId::kAcsPublicCoverage;
  acsp.full_size = 86600;
  acsp.n_numeric = 4;
  acsp.n_categorical = 14;
  acsp.minority_fraction = 0.092;
  acsp.pos_rate_minority = 0.483;  // covered by private insurance
  acsp.pos_rate_majority = 0.68;
  acsp.class_sep = 1.5;
  acsp.group_drift = 1.8;
  acsp.bias_shift = 0.2;
  acsp.trend_angle_degrees = 35;
  acsp.seed = 19;
  suite.push_back(acsp);

  RealDatasetSpec acsh;
  acsh.name = "ACSH";
  acsh.id = RealDatasetId::kAcsHealthInsurance;
  acsh.full_size = 250847;
  acsh.n_numeric = 4;
  acsh.n_categorical = 21;
  acsh.minority_fraction = 0.073;
  acsh.pos_rate_minority = 0.093;  // having health insurance
  acsh.pos_rate_majority = 0.21;
  acsh.class_sep = 1.2;
  acsh.group_drift = 2.4;
  acsh.bias_shift = 0.5;
  acsh.trend_angle_degrees = 30;
  acsh.seed = 23;
  suite.push_back(acsh);

  RealDatasetSpec acse;
  acse.name = "ACSE";
  acse.id = RealDatasetId::kAcsEmployment;
  acse.full_size = 250847;
  acse.n_numeric = 4;
  acse.n_categorical = 11;
  acse.minority_fraction = 0.073;
  acse.pos_rate_minority = 0.393;  // employment
  acse.pos_rate_majority = 0.57;
  acse.class_sep = 1.4;
  acse.group_drift = 2.0;
  acse.bias_shift = 0.3;
  acse.trend_angle_degrees = 30;
  acse.seed = 29;
  suite.push_back(acse);

  RealDatasetSpec acsi;
  acsi.name = "ACSI";
  acsi.id = RealDatasetId::kAcsIncomePoverty;
  acsi.full_size = 250847;
  acsi.n_numeric = 6;
  acsi.n_categorical = 13;
  acsi.minority_fraction = 0.073;
  acsi.pos_rate_minority = 0.402;  // income/poverty ratio < 250
  acsi.pos_rate_majority = 0.60;
  acsi.class_sep = 1.4;
  acsi.group_drift = 2.2;
  acsi.bias_shift = 0.3;
  acsi.trend_angle_degrees = 35;
  acsi.seed = 31;
  suite.push_back(acsi);

  return suite;
}

}  // namespace

const std::vector<RealDatasetSpec>& RealDatasetSuite() {
  static const std::vector<RealDatasetSpec> kSuite = BuildSuite();
  return kSuite;
}

const RealDatasetSpec& GetRealDatasetSpec(RealDatasetId id) {
  for (const RealDatasetSpec& spec : RealDatasetSuite()) {
    if (spec.id == id) return spec;
  }
  return RealDatasetSuite().front();
}

Result<RealDatasetSpec> FindRealDatasetSpec(const std::string& name) {
  std::string lower = ToLower(name);
  for (const RealDatasetSpec& spec : RealDatasetSuite()) {
    if (ToLower(spec.name) == lower) return spec;
  }
  return Status::NotFound(StrFormat("no dataset named '%s'", name.c_str()));
}

Result<Dataset> MakeRealWorldLike(const RealDatasetSpec& spec, double scale) {
  if (scale <= 0.0 || scale > 1.0) {
    return Status::InvalidArgument("MakeRealWorldLike: scale must be in (0,1]");
  }
  size_t n = std::max<size_t>(
      500, static_cast<size_t>(scale * static_cast<double>(spec.full_size)));
  size_t d_num = static_cast<size_t>(spec.n_numeric);
  size_t d_cat = static_cast<size_t>(spec.n_categorical);
  Rng rng(spec.seed);

  // Label-separating directions per group: the majority's trend along a
  // random unit direction, the minority's rotated by `trend_angle_degrees`
  // within a random plane — the drift-over-groups mechanism.
  std::vector<double> dir_w(d_num);
  double norm = 0.0;
  for (double& v : dir_w) {
    v = rng.Gaussian();
    norm += v * v;
  }
  norm = std::sqrt(std::max(norm, 1e-12));
  for (double& v : dir_w) v /= norm;

  // Orthonormal companion for the rotation plane and the drift direction.
  std::vector<double> ortho(d_num);
  if (d_num >= 2) {
    double dot = 0.0;
    for (size_t j = 0; j < d_num; ++j) {
      ortho[j] = rng.Gaussian();
    }
    for (size_t j = 0; j < d_num; ++j) dot += ortho[j] * dir_w[j];
    double onorm = 0.0;
    for (size_t j = 0; j < d_num; ++j) {
      ortho[j] -= dot * dir_w[j];
      onorm += ortho[j] * ortho[j];
    }
    onorm = std::sqrt(std::max(onorm, 1e-12));
    for (double& v : ortho) v /= onorm;
  } else {
    ortho = dir_w;
  }
  double angle = spec.trend_angle_degrees * kPi / 180.0;
  std::vector<double> dir_u(d_num);
  for (size_t j = 0; j < d_num; ++j) {
    dir_u[j] = std::cos(angle) * dir_w[j] + std::sin(angle) * ortho[j];
  }

  // Per-attribute scale/location diversity so raw attributes are not all
  // standard normal (exercises the encoder and CC standardization).
  std::vector<double> attr_scale(d_num);
  std::vector<double> attr_loc(d_num);
  for (size_t j = 0; j < d_num; ++j) {
    attr_scale[j] = std::exp(rng.Uniform(-0.5, 1.2));
    attr_loc[j] = rng.Uniform(-2.0, 4.0);
  }

  // Categorical attribute models: 2-6 categories; sampling logits carry
  // group and label signal of moderate strength.
  std::vector<int> cat_sizes(d_cat);
  std::vector<std::vector<double>> cat_base(d_cat);
  std::vector<std::vector<double>> cat_label_shift(d_cat);
  std::vector<std::vector<double>> cat_group_shift(d_cat);
  for (size_t j = 0; j < d_cat; ++j) {
    int k = static_cast<int>(rng.UniformInt(2, 6));
    cat_sizes[j] = k;
    cat_base[j].resize(static_cast<size_t>(k));
    cat_label_shift[j].resize(static_cast<size_t>(k));
    cat_group_shift[j].resize(static_cast<size_t>(k));
    for (int c = 0; c < k; ++c) {
      cat_base[j][static_cast<size_t>(c)] = rng.Uniform(-0.5, 0.5);
      cat_label_shift[j][static_cast<size_t>(c)] = rng.Uniform(-0.8, 0.8);
      cat_group_shift[j][static_cast<size_t>(c)] = rng.Uniform(-0.6, 0.6);
    }
  }

  // A category's sampling probabilities depend only on (attribute,
  // label, group), so each of the four per attribute is computed once,
  // indexed by 2 * label + minority.
  std::vector<std::array<std::vector<double>, 4>> cat_probs(d_cat);
  for (size_t j = 0; j < d_cat; ++j) {
    for (int y = 0; y <= 1; ++y) {
      for (int minority = 0; minority <= 1; ++minority) {
        std::vector<double>& probs = cat_probs[j][2 * y + minority];
        int k = cat_sizes[j];
        probs.resize(static_cast<size_t>(k));
        double total = 0.0;
        for (int c = 0; c < k; ++c) {
          double logit = cat_base[j][static_cast<size_t>(c)] +
                         (y == 1 ? 1.0 : -1.0) *
                             cat_label_shift[j][static_cast<size_t>(c)] * 0.5 +
                         (minority ? 1.0 : -1.0) *
                             cat_group_shift[j][static_cast<size_t>(c)] * 0.5;
          probs[static_cast<size_t>(c)] = std::exp(logit);
          total += probs[static_cast<size_t>(c)];
        }
        for (double& p : probs) p /= total;
      }
    }
  }

  Matrix x(n, d_num);
  std::vector<std::vector<int>> cats(d_cat, std::vector<int>(n, 0));
  std::vector<int> labels(n);
  std::vector<int> groups(n);

  for (size_t i = 0; i < n; ++i) {
    bool minority = rng.Bernoulli(spec.minority_fraction);
    double pos_rate =
        minority ? spec.pos_rate_minority : spec.pos_rate_majority;
    int y = rng.Bernoulli(pos_rate) ? 1 : 0;
    const std::vector<double>& dir = minority ? dir_u : dir_w;
    double side = (y == 1 ? 0.5 : -0.5) * spec.class_sep;

    double noise_scale =
        (spec.outlier_fraction > 0.0 && rng.Bernoulli(spec.outlier_fraction))
            ? spec.outlier_spread
            : 1.0;
    for (size_t j = 0; j < d_num; ++j) {
      double z = side * dir[j] + noise_scale * rng.Gaussian();
      if (minority) {
        z += spec.group_drift * ortho[j] - spec.bias_shift * dir_w[j];
      }
      x.At(i, j) = attr_loc[j] + attr_scale[j] * z;
    }
    for (size_t j = 0; j < d_cat; ++j) {
      cats[j][i] = static_cast<int>(
          rng.Categorical(cat_probs[j][2 * y + (minority ? 1 : 0)]));
    }
    if (spec.label_noise > 0.0 && rng.Bernoulli(spec.label_noise)) y = 1 - y;
    labels[i] = y;
    groups[i] = minority ? kMinorityGroup : kMajorityGroup;
  }

  Dataset out;
  for (size_t j = 0; j < d_num; ++j) {
    FAIRDRIFT_RETURN_IF_ERROR(
        out.AddNumericColumn(StrFormat("num%zu", j + 1), x.Col(j)));
  }
  for (size_t j = 0; j < d_cat; ++j) {
    FAIRDRIFT_RETURN_IF_ERROR(out.AddCategoricalColumn(
        StrFormat("cat%zu", j + 1), std::move(cats[j]), cat_sizes[j]));
  }
  FAIRDRIFT_RETURN_IF_ERROR(out.SetLabels(std::move(labels), 2));
  FAIRDRIFT_RETURN_IF_ERROR(out.SetGroups(std::move(groups)));
  return out;
}

}  // namespace fairdrift
