// Unit tests for the learners and classification metrics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "data/encode.h"
#include "datagen/realworld.h"
#include "linalg/cholesky.h"
#include "ml/decision_tree.h"
#include "ml/gbt.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "ml/model.h"
#include "ml/threshold.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace fairdrift {
namespace {

/// Linearly separable 2D data: y = 1 iff x0 + x1 > 0 (with margin).
void MakeSeparable(size_t n, uint64_t seed, Matrix* x, std::vector<int>* y) {
  Rng rng(seed);
  *x = Matrix(n, 2);
  y->resize(n);
  for (size_t i = 0; i < n; ++i) {
    double a = rng.Gaussian();
    double b = rng.Gaussian();
    int label = (a + b > 0.0) ? 1 : 0;
    // Push away from the boundary for a clean margin.
    double push = label == 1 ? 0.5 : -0.5;
    x->At(i, 0) = a + push;
    x->At(i, 1) = b + push;
    (*y)[i] = label;
  }
}

/// XOR-style data no linear model can fit.
void MakeXor(size_t n, uint64_t seed, Matrix* x, std::vector<int>* y) {
  Rng rng(seed);
  *x = Matrix(n, 2);
  y->resize(n);
  for (size_t i = 0; i < n; ++i) {
    double a = rng.Uniform(-1.0, 1.0);
    double b = rng.Uniform(-1.0, 1.0);
    x->At(i, 0) = a;
    x->At(i, 1) = b;
    (*y)[i] = (a * b > 0.0) ? 1 : 0;
  }
}

double HardAccuracy(const Classifier& model, const Matrix& x,
                    const std::vector<int>& y) {
  Result<std::vector<int>> pred = model.Predict(x);
  EXPECT_TRUE(pred.ok());
  Result<double> acc = Accuracy(y, pred.value());
  EXPECT_TRUE(acc.ok());
  return acc.value_or(0.0);
}

// ------------------------------------------------------------------- LR

TEST(LogisticRegressionTest, FitsSeparableData) {
  Matrix x;
  std::vector<int> y;
  MakeSeparable(500, 50, &x, &y);
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(x, y, {}).ok());
  EXPECT_TRUE(lr.is_fitted());
  EXPECT_GT(HardAccuracy(lr, x, y), 0.97);
}

TEST(LogisticRegressionTest, CoefficientsPointAlongSeparator) {
  Matrix x;
  std::vector<int> y;
  MakeSeparable(1000, 51, &x, &y);
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(x, y, {}).ok());
  EXPECT_GT(lr.coefficients()[0], 0.0);
  EXPECT_GT(lr.coefficients()[1], 0.0);
  // Symmetric roles: coefficients roughly equal.
  EXPECT_NEAR(lr.coefficients()[0] / lr.coefficients()[1], 1.0, 0.3);
}

TEST(LogisticRegressionTest, ProbabilitiesAreCalibratedOnCoinFlips) {
  // Pure-noise features: predicted probability must approach the base rate.
  Rng rng(52);
  Matrix x(2000, 1);
  std::vector<int> y(2000);
  for (size_t i = 0; i < 2000; ++i) {
    x.At(i, 0) = rng.Gaussian();
    y[i] = rng.Bernoulli(0.3) ? 1 : 0;
  }
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(x, y, {}).ok());
  Result<std::vector<double>> p = lr.PredictProba(x);
  ASSERT_TRUE(p.ok());
  double mean = 0.0;
  for (double v : p.value()) mean += v;
  mean /= static_cast<double>(p.value().size());
  EXPECT_NEAR(mean, 0.3, 0.03);
}

TEST(LogisticRegressionTest, WeightsShiftTheDecision) {
  // Two overlapping clusters; up-weighting the positive class must raise
  // the positive prediction rate.
  Rng rng(53);
  Matrix x(800, 1);
  std::vector<int> y(800);
  for (size_t i = 0; i < 800; ++i) {
    int label = rng.Bernoulli(0.5) ? 1 : 0;
    x.At(i, 0) = rng.Gaussian(label == 1 ? 0.5 : -0.5, 1.0);
    y[i] = label;
  }
  LogisticRegression plain;
  ASSERT_TRUE(plain.Fit(x, y, {}).ok());
  std::vector<double> w(800, 1.0);
  for (size_t i = 0; i < 800; ++i) {
    if (y[i] == 1) w[i] = 5.0;
  }
  LogisticRegression weighted;
  ASSERT_TRUE(weighted.Fit(x, y, w).ok());

  auto positive_rate = [&](const LogisticRegression& m) {
    Result<std::vector<int>> pred = m.Predict(x);
    EXPECT_TRUE(pred.ok());
    double rate = 0.0;
    for (int v : pred.value()) rate += v;
    return rate / 800.0;
  };
  EXPECT_GT(positive_rate(weighted), positive_rate(plain) + 0.05);
}

TEST(LogisticRegressionTest, WeightedFitEquivalentToReplication) {
  // Integer weights must match physically replicating tuples.
  Matrix x = {{0.0}, {1.0}, {2.0}, {3.0}};
  std::vector<int> y = {0, 0, 1, 1};
  std::vector<double> w = {1.0, 2.0, 1.0, 3.0};
  LogisticRegression weighted;
  ASSERT_TRUE(weighted.Fit(x, y, w).ok());

  Matrix x_rep = {{0.0}, {1.0}, {1.0}, {2.0}, {3.0}, {3.0}, {3.0}};
  std::vector<int> y_rep = {0, 0, 0, 1, 1, 1, 1};
  LogisticRegression replicated;
  ASSERT_TRUE(replicated.Fit(x_rep, y_rep, {}).ok());

  EXPECT_NEAR(weighted.coefficients()[0], replicated.coefficients()[0], 1e-5);
  EXPECT_NEAR(weighted.intercept(), replicated.intercept(), 1e-5);
}

TEST(LogisticRegressionTest, InputValidation) {
  LogisticRegression lr;
  Matrix x = {{1.0}, {2.0}};
  EXPECT_FALSE(lr.Fit(Matrix(), {}, {}).ok());
  EXPECT_FALSE(lr.Fit(x, {0}, {}).ok());
  EXPECT_FALSE(lr.Fit(x, {0, 2}, {}).ok());
  EXPECT_FALSE(lr.Fit(x, {0, 1}, {1.0}).ok());
  EXPECT_FALSE(lr.Fit(x, {0, 1}, {1.0, -1.0}).ok());
  EXPECT_FALSE(lr.PredictProba(x).ok());  // not fitted
}

TEST(LogisticRegressionTest, PredictRejectsWrongWidth) {
  Matrix x;
  std::vector<int> y;
  MakeSeparable(100, 54, &x, &y);
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(x, y, {}).ok());
  Matrix wrong(5, 3);
  EXPECT_FALSE(lr.PredictProba(wrong).ok());
}

TEST(LogisticRegressionTest, SingleClassDataFitsBaseRate) {
  Matrix x = {{1.0}, {2.0}, {3.0}};
  std::vector<int> y = {1, 1, 1};
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(x, y, {}).ok());
  Result<std::vector<double>> p = lr.PredictProba(x);
  ASSERT_TRUE(p.ok());
  for (double v : p.value()) EXPECT_GT(v, 0.9);
}

TEST(LogisticRegressionTest, CloneUnfittedKeepsHyperparameters) {
  LogisticRegressionOptions opts;
  opts.l2_lambda = 0.5;
  LogisticRegression lr(opts);
  std::unique_ptr<Classifier> clone = lr.CloneUnfitted();
  EXPECT_EQ(clone->name(), "LR");
  EXPECT_FALSE(clone->is_fitted());
}

// ----------------------------------------------- LR against the dense IRLS

/// LogisticRegression::Fit as it was before its passes skipped zero
/// columns: every margin, gradient and Hessian pass visits every column.
/// Kept as the bitwise oracle of the nonzero-only passes.
struct DenseIrlsFit {
  Status status;
  std::vector<double> beta;
  double intercept = 0.0;
};

DenseIrlsFit DenseIrlsOracle(const Matrix& x, const std::vector<int>& y,
                             std::vector<double> weights,
                             const LogisticRegressionOptions& options) {
  DenseIrlsFit fit;
  const size_t n = x.rows();
  const size_t d = x.cols();
  if (weights.empty()) weights.assign(n, 1.0);
  fit.beta.assign(d, 0.0);
  double wpos = 0.0;
  double wtot = 0.0;
  for (size_t i = 0; i < n; ++i) {
    wtot += weights[i];
    if (y[i] == 1) wpos += weights[i];
  }
  if (wtot <= 0.0) {
    fit.status = Status::InvalidArgument("zero total weight");
    return fit;
  }
  double rate = std::clamp(wpos / wtot, 1e-6, 1.0 - 1e-6);
  fit.intercept = std::log(rate / (1.0 - rate));
  std::vector<double>& beta = fit.beta;
  double& intercept = fit.intercept;
  std::vector<double> p(n);
  const size_t dim1 = d + 1;
  const size_t chunk_size = BoundedReductionChunk(n);
  const size_t chunks = ReductionChunks(n, chunk_size);
  const size_t hstride = dim1 * dim1;
  std::vector<double> grad_partial(chunks * dim1);
  std::vector<double> hess_partial(chunks * hstride);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ParallelForChunks(
        0, n,
        [&](size_t, size_t cb, size_t ce) {
          for (size_t i = cb; i < ce; ++i) {
            const double* row = x.RowPtr(i);
            double acc = intercept;
            for (size_t j = 0; j < d; ++j) acc += beta[j] * row[j];
            p[i] = acc >= 0.0 ? 1.0 / (1.0 + std::exp(-acc))
                              : std::exp(acc) / (1.0 + std::exp(acc));
          }
        },
        options.pool);
    ParallelForChunks(
        0, n,
        [&](size_t c, size_t cb, size_t ce) {
          double* g = grad_partial.data() + c * dim1;
          double* h = hess_partial.data() + c * hstride;
          std::fill(g, g + dim1, 0.0);
          std::fill(h, h + hstride, 0.0);
          for (size_t i = cb; i < ce; ++i) {
            const double* row = x.RowPtr(i);
            double r = weights[i] * (p[i] - static_cast<double>(y[i]));
            for (size_t j = 0; j < d; ++j) g[j] += r * row[j];
            g[d] += r;
            double s = weights[i] * p[i] * (1.0 - p[i]);
            if (s <= 0.0) continue;
            for (size_t a = 0; a < d; ++a) {
              double sa = s * row[a];
              double* ha = h + a * dim1;
              for (size_t b = a; b < d; ++b) ha[b] += sa * row[b];
              ha[d] += sa;
            }
            h[d * dim1 + d] += s;
          }
        },
        options.pool, chunk_size);
    std::vector<double> grad(dim1, 0.0);
    for (size_t c = 0; c < chunks; ++c) {
      const double* g = grad_partial.data() + c * dim1;
      for (size_t j = 0; j < dim1; ++j) grad[j] += g[j];
    }
    for (size_t j = 0; j < d; ++j) grad[j] += options.l2_lambda * beta[j];
    Matrix hess(dim1, dim1, 0.0);
    for (size_t c = 0; c < chunks; ++c) {
      const double* h = hess_partial.data() + c * hstride;
      for (size_t a = 0; a < dim1; ++a) {
        for (size_t b = a; b < dim1; ++b) hess.At(a, b) += h[a * dim1 + b];
      }
    }
    for (size_t a = 0; a < dim1; ++a) {
      for (size_t b = a + 1; b < dim1; ++b) hess.At(b, a) = hess.At(a, b);
    }
    for (size_t j = 0; j < d; ++j) hess.At(j, j) += options.l2_lambda;
    Result<std::vector<double>> step = RidgeSolve(hess, grad, 1e-8);
    if (!step.ok()) {
      fit.status = Status::NumericalError("Newton step failed");
      return fit;
    }
    double max_update = 0.0;
    double scale = 1.0;
    for (double v : step.value()) max_update = std::max(max_update, std::fabs(v));
    if (max_update > 10.0) scale = 10.0 / max_update;
    for (size_t j = 0; j < d; ++j) beta[j] -= scale * step.value()[j];
    intercept -= scale * step.value()[d];
    if (scale * max_update < options.tolerance) break;
  }
  for (double b : beta) {
    if (!std::isfinite(b)) fit.status = Status::NumericalError("diverged");
  }
  if (fit.status.ok() && !std::isfinite(intercept)) {
    fit.status = Status::NumericalError("intercept diverged");
  }
  return fit;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Fits `x` on pools of 0, 1 and 3 workers and expects each fit to
/// return the oracle's status and, when it succeeds, its bits.
void ExpectDenseOracleBits(const Matrix& x, const std::vector<int>& y,
                           const std::vector<double>& w,
                           const std::string& what) {
  ThreadPool inline_pool(0);
  ThreadPool single(1);
  ThreadPool several(3);
  for (ThreadPool* pool : {&inline_pool, &single, &several}) {
    LogisticRegressionOptions options;
    options.pool = pool;
    DenseIrlsFit want = DenseIrlsOracle(x, y, w, options);
    LogisticRegression lr(options);
    Status got = lr.Fit(x, y, w);
    const std::string where =
        what + ", " + std::to_string(pool->num_threads()) + " worker(s)";
    ASSERT_EQ(got.code(), want.status.code())
        << where << ": " << got.ToString() << " vs " << want.status.ToString();
    if (!got.ok()) continue;
    ASSERT_EQ(lr.coefficients().size(), want.beta.size()) << where;
    for (size_t j = 0; j < want.beta.size(); ++j) {
      EXPECT_EQ(Bits(lr.coefficients()[j]), Bits(want.beta[j]))
          << where << ", coefficient " << j;
    }
    EXPECT_EQ(Bits(lr.intercept()), Bits(want.intercept)) << where;
  }
}

/// n rows of d columns, each entry nonzero with probability `density`
/// (Gaussian, so some rows run the sparse loops and some the dense).
void MakeSparseTask(size_t n, size_t d, double density, uint64_t seed,
                    Matrix* x, std::vector<int>* y) {
  Rng rng(seed);
  *x = Matrix(n, d, 0.0);
  y->resize(n);
  for (size_t i = 0; i < n; ++i) {
    double margin = 0.0;
    for (size_t j = 0; j < d; ++j) {
      if (!rng.Bernoulli(density)) continue;
      x->At(i, j) = rng.Gaussian();
      margin += (j % 3 == 0 ? 1.0 : -0.5) * x->At(i, j);
    }
    (*y)[i] = rng.Bernoulli(1.0 / (1.0 + std::exp(-margin))) ? 1 : 0;
  }
}

TEST(LogisticRegressionSparseTest, EncodedOneHotDataMatchesDenseOracle) {
  Result<RealDatasetSpec> spec = FindRealDatasetSpec("meps");
  ASSERT_TRUE(spec.ok());
  Result<Dataset> data = MakeRealWorldLike(spec.value(), 0.2);
  ASSERT_TRUE(data.ok());
  Result<FeatureEncoder> encoder = FeatureEncoder::Fit(data.value());
  ASSERT_TRUE(encoder.ok());
  Result<Matrix> x = encoder->Transform(data.value());
  ASSERT_TRUE(x.ok());
  ASSERT_GT(x->rows(), 2048u);  // several reduction blocks
  ExpectDenseOracleBits(x.value(), data->labels(), {}, "unit weights");
  Rng rng(5);
  std::vector<double> w(x->rows());
  for (double& wi : w) wi = rng.Uniform(0.2, 3.0);
  ExpectDenseOracleBits(x.value(), data->labels(), w, "varied weights");
}

TEST(LogisticRegressionSparseTest, DenseMatrixMatchesDenseOracle) {
  Matrix x;
  std::vector<int> y;
  MakeSparseTask(3000, 12, 1.0, 61, &x, &y);
  ExpectDenseOracleBits(x, y, {}, "fully dense");
}

TEST(LogisticRegressionSparseTest, MixedRowsZeroRowsAndZeroColumn) {
  Matrix x;
  std::vector<int> y;
  // Density 0.45 of 16 columns: rows fall on both sides of half.
  MakeSparseTask(3000, 16, 0.45, 62, &x, &y);
  for (size_t i = 0; i < x.rows(); ++i) {
    x.At(i, 5) = 0.0;                                     // a zero column
    if (i % 7 == 0) {                                     // all-zero rows
      for (size_t j = 0; j < x.cols(); ++j) x.At(i, j) = 0.0;
    }
    if (i % 5 == 0) {
      for (size_t j = 0; j < x.cols(); ++j) {
        if (x.At(i, j) == 0.0) x.At(i, j) = -0.0;         // signed zeros
      }
    }
  }
  ExpectDenseOracleBits(x, y, {}, "mixed rows");
}

TEST(LogisticRegressionSparseTest, ZeroWeightsSkipTheHessianAlike) {
  Matrix x;
  std::vector<int> y;
  MakeSparseTask(2500, 20, 0.2, 63, &x, &y);
  std::vector<double> w(x.rows(), 1.0);
  for (size_t i = 0; i < w.size(); i += 3) w[i] = 0.0;
  ExpectDenseOracleBits(x, y, w, "zero weights");
}

TEST(LogisticRegressionSparseTest, NonFiniteFeaturesReturnTheOracleStatus) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Matrix x;
    std::vector<int> y;
    MakeSparseTask(1500, 10, 0.3, 64, &x, &y);
    x.At(17, 3) = bad;
    ExpectDenseOracleBits(x, y, {}, "non-finite " + std::to_string(bad));
  }
  // Finite, but with its weight the curvature-scaled entry s * x
  // overflows, and the dense loop's Inf * 0 products turn NaN.
  Matrix x;
  std::vector<int> y;
  MakeSparseTask(1500, 10, 0.3, 65, &x, &y);
  x.At(3, 1) = 1e308;
  std::vector<double> w(x.rows(), 1.0);
  w[3] = 100.0;
  ExpectDenseOracleBits(x, y, w, "huge entry");
}

// --------------------------------------------------------- QuantileBinner

TEST(QuantileBinnerTest, BinsAreMonotone) {
  Rng rng(55);
  Matrix x(500, 1);
  for (size_t i = 0; i < 500; ++i) x.At(i, 0) = rng.Gaussian();
  Result<QuantileBinner> binner = QuantileBinner::Fit(x, 16);
  ASSERT_TRUE(binner.ok());
  uint8_t prev = binner->BinOf(0, -10.0);
  for (double v = -10.0; v <= 10.0; v += 0.1) {
    uint8_t b = binner->BinOf(0, v);
    EXPECT_GE(b, prev);
    prev = b;
  }
  EXPECT_EQ(binner->BinOf(0, -100.0), 0);
  EXPECT_EQ(binner->BinOf(0, 100.0), binner->NumBins(0) - 1);
}

TEST(QuantileBinnerTest, ConstantFeatureSingleBin) {
  Matrix x(100, 1, 2.5);
  Result<QuantileBinner> binner = QuantileBinner::Fit(x, 16);
  ASSERT_TRUE(binner.ok());
  EXPECT_EQ(binner->NumBins(0), 1);
}

TEST(QuantileBinnerTest, ValidatesArguments) {
  EXPECT_FALSE(QuantileBinner::Fit(Matrix(), 16).ok());
  Matrix x(10, 1);
  EXPECT_FALSE(QuantileBinner::Fit(x, 1).ok());
  EXPECT_FALSE(QuantileBinner::Fit(x, 500).ok());
}

// ---------------------------------------------------------------- GBT

TEST(GbtTest, FitsXorData) {
  Matrix x;
  std::vector<int> y;
  MakeXor(1000, 56, &x, &y);
  GbtOptions opts;
  opts.num_rounds = 40;
  GradientBoostedTrees gbt(opts);
  ASSERT_TRUE(gbt.Fit(x, y, {}).ok());
  EXPECT_GT(HardAccuracy(gbt, x, y), 0.9);
}

TEST(GbtTest, LinearModelCannotFitXorButGbtCan) {
  Matrix x;
  std::vector<int> y;
  MakeXor(1000, 57, &x, &y);
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(x, y, {}).ok());
  GradientBoostedTrees gbt;
  ASSERT_TRUE(gbt.Fit(x, y, {}).ok());
  EXPECT_LT(HardAccuracy(lr, x, y), 0.65);
  EXPECT_GT(HardAccuracy(gbt, x, y), 0.85);
}

TEST(GbtTest, TrainingLossDecreases) {
  Matrix x;
  std::vector<int> y;
  MakeSeparable(600, 58, &x, &y);
  GbtOptions opts;
  opts.num_rounds = 20;
  opts.subsample = 1.0;  // deterministic loss curve
  GradientBoostedTrees gbt(opts);
  ASSERT_TRUE(gbt.Fit(x, y, {}).ok());
  const std::vector<double>& curve = gbt.training_loss_curve();
  ASSERT_GE(curve.size(), 10u);
  EXPECT_LT(curve.back(), curve.front() * 0.7);
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i], curve[i - 1] + 1e-9);
  }
}

TEST(GbtTest, WeightsShiftTheDecision) {
  Rng rng(59);
  Matrix x(800, 1);
  std::vector<int> y(800);
  for (size_t i = 0; i < 800; ++i) {
    int label = rng.Bernoulli(0.5) ? 1 : 0;
    x.At(i, 0) = rng.Gaussian(label == 1 ? 0.5 : -0.5, 1.0);
    y[i] = label;
  }
  std::vector<double> w(800, 1.0);
  for (size_t i = 0; i < 800; ++i) {
    if (y[i] == 1) w[i] = 6.0;
  }
  GradientBoostedTrees plain;
  GradientBoostedTrees weighted;
  ASSERT_TRUE(plain.Fit(x, y, {}).ok());
  ASSERT_TRUE(weighted.Fit(x, y, w).ok());
  auto positive_rate = [&](const GradientBoostedTrees& m) {
    Result<std::vector<int>> pred = m.Predict(x);
    EXPECT_TRUE(pred.ok());
    double rate = 0.0;
    for (int v : pred.value()) rate += v;
    return rate / 800.0;
  };
  EXPECT_GT(positive_rate(weighted), positive_rate(plain) + 0.05);
}

TEST(GbtTest, DeterministicForSameSeed) {
  Matrix x;
  std::vector<int> y;
  MakeXor(300, 60, &x, &y);
  GbtOptions opts;
  opts.seed = 123;
  GradientBoostedTrees a(opts);
  GradientBoostedTrees b(opts);
  ASSERT_TRUE(a.Fit(x, y, {}).ok());
  ASSERT_TRUE(b.Fit(x, y, {}).ok());
  Result<std::vector<double>> pa = a.PredictProba(x);
  Result<std::vector<double>> pb = b.PredictProba(x);
  ASSERT_TRUE(pa.ok() && pb.ok());
  for (size_t i = 0; i < x.rows(); ++i) {
    EXPECT_DOUBLE_EQ(pa.value()[i], pb.value()[i]);
  }
}

TEST(GbtTest, SingleClassDataStaysAtBaseRate) {
  Matrix x = {{1.0}, {2.0}, {3.0}};
  std::vector<int> y = {0, 0, 0};
  GradientBoostedTrees gbt;
  ASSERT_TRUE(gbt.Fit(x, y, {}).ok());
  Result<std::vector<double>> p = gbt.PredictProba(x);
  ASSERT_TRUE(p.ok());
  for (double v : p.value()) EXPECT_LT(v, 0.1);
}

TEST(GbtTest, NotFittedRejected) {
  GradientBoostedTrees gbt;
  EXPECT_FALSE(gbt.PredictProba(Matrix(2, 2)).ok());
}

// ---------------------------------------------------------- MakeLearner

TEST(MakeLearnerTest, FamiliesAndNames) {
  std::unique_ptr<Classifier> lr =
      MakeLearner(LearnerKind::kLogisticRegression);
  std::unique_ptr<Classifier> xgb = MakeLearner(LearnerKind::kGradientBoosting);
  EXPECT_EQ(lr->name(), "LR");
  EXPECT_EQ(xgb->name(), "XGB");
  EXPECT_STREQ(LearnerKindName(LearnerKind::kLogisticRegression), "LR");
  EXPECT_STREQ(LearnerKindName(LearnerKind::kGradientBoosting), "XGB");
}

// -------------------------------------------------------------- Metrics

TEST(MetricsTest, ConfusionHandCounted) {
  std::vector<int> y_true = {1, 1, 0, 0, 1, 0};
  std::vector<int> y_pred = {1, 0, 0, 1, 1, 0};
  Result<ConfusionCounts> c = ComputeConfusion(y_true, y_pred);
  ASSERT_TRUE(c.ok());
  EXPECT_DOUBLE_EQ(c->tp, 2.0);
  EXPECT_DOUBLE_EQ(c->fn, 1.0);
  EXPECT_DOUBLE_EQ(c->fp, 1.0);
  EXPECT_DOUBLE_EQ(c->tn, 2.0);
  EXPECT_NEAR(c->TPR(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(c->TNR(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(c->SelectionRate(), 0.5, 1e-12);
}

TEST(MetricsTest, WeightedConfusion) {
  std::vector<int> y_true = {1, 0};
  std::vector<int> y_pred = {1, 1};
  Result<ConfusionCounts> c = ComputeConfusion(y_true, y_pred, {2.0, 3.0});
  ASSERT_TRUE(c.ok());
  EXPECT_DOUBLE_EQ(c->tp, 2.0);
  EXPECT_DOUBLE_EQ(c->fp, 3.0);
}

TEST(MetricsTest, AccuracyAndBalancedAccuracy) {
  std::vector<int> y_true = {1, 1, 1, 1, 0};
  std::vector<int> y_pred = {1, 1, 1, 1, 1};
  EXPECT_NEAR(Accuracy(y_true, y_pred).value(), 0.8, 1e-12);
  // TPR = 1, TNR = 0 -> balanced accuracy 0.5 despite 80% accuracy.
  EXPECT_NEAR(BalancedAccuracy(y_true, y_pred).value(), 0.5, 1e-12);
}

TEST(MetricsTest, MetricsRejectBadInput) {
  EXPECT_FALSE(ComputeConfusion({}, {}).ok());
  EXPECT_FALSE(ComputeConfusion({1}, {1, 0}).ok());
  EXPECT_FALSE(ComputeConfusion({2}, {1}).ok());
  EXPECT_FALSE(LogLoss({1}, {0.5, 0.5}).ok());
}

TEST(MetricsTest, LogLossPerfectAndWorst) {
  EXPECT_NEAR(LogLoss({1, 0}, {1.0, 0.0}).value(), 0.0, 1e-9);
  double coin = LogLoss({1, 0}, {0.5, 0.5}).value();
  EXPECT_NEAR(coin, std::log(2.0), 1e-12);
}

TEST(MetricsTest, RocAucPerfectAndRandom) {
  std::vector<int> y = {0, 0, 1, 1};
  EXPECT_NEAR(RocAuc(y, {0.1, 0.2, 0.8, 0.9}).value(), 1.0, 1e-12);
  EXPECT_NEAR(RocAuc(y, {0.9, 0.8, 0.2, 0.1}).value(), 0.0, 1e-12);
  EXPECT_NEAR(RocAuc(y, {0.5, 0.5, 0.5, 0.5}).value(), 0.5, 1e-12);
  EXPECT_NEAR(RocAuc({1, 1}, {0.1, 0.2}).value(), 0.5, 1e-12);  // one class
}

TEST(MetricsTest, RocAucHandComputedWithTies) {
  std::vector<int> y = {0, 1, 0, 1};
  std::vector<double> p = {0.3, 0.3, 0.1, 0.9};
  // Pairs: (0.3-,0.3+) tie=0.5; (0.3-,0.9+)=1; (0.1-,0.3+)=1; (0.1-,0.9+)=1
  // AUC = (0.5 + 3) / 4 = 0.875.
  EXPECT_NEAR(RocAuc(y, p).value(), 0.875, 1e-12);
}

// -------------------------------------------------------------- Threshold

TEST(ThresholdTest, FindsSeparatingCut) {
  std::vector<int> y = {0, 0, 0, 1, 1, 1};
  std::vector<double> p = {0.1, 0.2, 0.3, 0.7, 0.8, 0.9};
  Result<double> thr = TuneThreshold(y, p);
  ASSERT_TRUE(thr.ok());
  EXPECT_GT(*thr, 0.3);
  EXPECT_LE(*thr, 0.7);
}

TEST(ThresholdTest, ImbalancedDataPrefersBalancedCut) {
  // 90 negatives at low scores, 10 positives at mid scores whose best
  // balanced-accuracy cut selects the positives.
  std::vector<int> y;
  std::vector<double> p;
  Rng rng(61);
  for (int i = 0; i < 90; ++i) {
    y.push_back(0);
    p.push_back(rng.Uniform(0.0, 0.4));
  }
  for (int i = 0; i < 10; ++i) {
    y.push_back(1);
    p.push_back(rng.Uniform(0.45, 0.6));
  }
  Result<double> thr = TuneThreshold(y, p);
  ASSERT_TRUE(thr.ok());
  std::vector<int> pred;
  for (double v : p) pred.push_back(v >= *thr ? 1 : 0);
  EXPECT_GT(BalancedAccuracy(y, pred).value(), 0.95);
}

TEST(ThresholdTest, RejectsBadInput) {
  EXPECT_FALSE(TuneThreshold({}, {}).ok());
  EXPECT_FALSE(TuneThreshold({1}, {0.5, 0.1}).ok());
}

TEST(ThresholdTest, AccuracyCriterionOnImbalance) {
  // All-negative prediction maximizes plain accuracy here.
  std::vector<int> y = {0, 0, 0, 0, 0, 0, 0, 0, 0, 1};
  std::vector<double> p = {0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4, 0.45, 0.5};
  Result<double> thr_acc =
      TuneThreshold(y, p, ThresholdCriterion::kAccuracy);
  ASSERT_TRUE(thr_acc.ok());
  std::vector<int> pred;
  for (double v : p) pred.push_back(v >= *thr_acc ? 1 : 0);
  EXPECT_GE(Accuracy(y, pred).value(), 0.9);
}

}  // namespace
}  // namespace fairdrift
