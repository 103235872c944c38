// Tests for the density monitor's bounded classification path.
//
// The contract under test is absolute: LogDensityBelow(q, T) must return
// the same bit as computing LogDensity(q) < T exactly, for every query,
// threshold, tree backend, approximation tolerance, and worker count —
// including thresholds placed exactly at a query's own log-density (a
// tie, which the strict < resolves to "not below") and thresholds one
// ulp-ish off a node bound. Bounded classification is a pure *speedup*:
// any query the interval refinement cannot prove falls back to the
// oracle, so disagreement anywhere is a soundness bug, not a tolerance
// issue.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/deployment.h"
#include "data/dataset.h"
#include "kde/kde.h"
#include "serve/snapshot.h"
#include "util/binary_io.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace fairdrift {
namespace {

Matrix RandomPoints(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) m.At(i, j) = rng.Gaussian();
  }
  return m;
}

/// Queries that stress the classifier: training points themselves (deep
/// in the density), fresh draws from the same distribution (near the
/// floor quantiles), shifted clusters (moderately off-manifold), and far
/// outliers (provably-below territory where pruning should decide at the
/// root).
Matrix MonitorQueries(const Matrix& train, uint64_t seed) {
  Rng rng(seed);
  size_t d = train.cols();
  size_t reuse = std::min<size_t>(train.rows(), 16);
  Matrix q(reuse + 48, d);
  for (size_t i = 0; i < reuse; ++i) {
    for (size_t j = 0; j < d; ++j) q.At(i, j) = train.At(i, j);
  }
  for (size_t i = reuse; i < reuse + 16; ++i) {
    for (size_t j = 0; j < d; ++j) q.At(i, j) = rng.Gaussian();
  }
  for (size_t i = reuse + 16; i < reuse + 32; ++i) {
    for (size_t j = 0; j < d; ++j) q.At(i, j) = rng.Gaussian() + 3.0;
  }
  for (size_t i = reuse + 32; i < q.rows(); ++i) {
    for (size_t j = 0; j < d; ++j) q.At(i, j) = rng.Gaussian() * 0.5 + 25.0;
  }
  return q;
}

/// Thresholds that hug the decision boundary: every query's exact
/// log-density (ties), nudges either side of it, the 1% / 10% / 50%
/// training quantiles (realistic monitor floors), and two absurd
/// extremes that the interval bounds must decide at the root.
std::vector<double> BoundaryThresholds(const KernelDensity& kde,
                                       const Matrix& train,
                                       const std::vector<double>& exact_logd) {
  std::vector<double> thresholds;
  for (double v : exact_logd) {
    thresholds.push_back(v);  // exact tie: strict < says "not below"
    thresholds.push_back(std::nextafter(v, -1e300));
    thresholds.push_back(std::nextafter(v, 1e300));
    thresholds.push_back(v - 1e-9);
    thresholds.push_back(v + 1e-9);
  }
  std::vector<double> train_logd = kde.LogDensityAll(train);
  std::sort(train_logd.begin(), train_logd.end());
  thresholds.push_back(train_logd[train_logd.size() / 100]);
  thresholds.push_back(train_logd[train_logd.size() / 10]);
  thresholds.push_back(train_logd[train_logd.size() / 2]);
  thresholds.push_back(-1e6);  // nothing below: provable at the root
  thresholds.push_back(1e6);   // everything below: provable at the root
  return thresholds;
}

// ------------------------------ bounded classification vs exact oracle

TEST(KdeMonitorTest, ClassificationAgreesWithOracleEverywhere) {
  for (KdeTreeBackend backend :
       {KdeTreeBackend::kKdTree, KdeTreeBackend::kBallTree}) {
    for (double atol : {0.0, 1e-4}) {
      for (size_t d = 1; d <= 8; ++d) {
        KdeOptions options;
        options.tree_backend = backend;
        options.approximation_atol = atol;
        options.leaf_size = 8;  // deep trees: many interior bounds in play
        Matrix train = RandomPoints(300, d, 1000 + d);
        Result<KernelDensity> kde = KernelDensity::Fit(train, options);
        ASSERT_TRUE(kde.ok()) << kde.status().ToString();

        Matrix queries = MonitorQueries(train, 7000 + d);
        std::vector<double> exact = kde.value().LogDensityAll(queries);
        // Boundary thresholds derive from a subset of queries so the
        // tie cases are guaranteed to be exercised.
        std::vector<double> probe(exact.begin(),
                                  exact.begin() +
                                      std::min<size_t>(exact.size(), 8));
        for (double threshold :
             BoundaryThresholds(kde.value(), train, probe)) {
          for (size_t i = 0; i < queries.rows(); ++i) {
            bool oracle = exact[i] < threshold;
            bool classified =
                kde.value().LogDensityBelow(queries.RowPtr(i), threshold);
            ASSERT_EQ(classified, oracle)
                << "backend=" << static_cast<int>(backend)
                << " atol=" << atol << " d=" << d << " query=" << i
                << " logd=" << exact[i] << " threshold=" << threshold;
          }
        }
      }
    }
  }
}

TEST(KdeMonitorTest, ClassifyBelowAllMatchesPerQueryAcrossWorkerCounts) {
  for (KdeTreeBackend backend :
       {KdeTreeBackend::kKdTree, KdeTreeBackend::kBallTree}) {
    KdeOptions options;
    options.tree_backend = backend;
    options.leaf_size = 8;
    Matrix train = RandomPoints(400, 4, 42);
    Result<KernelDensity> kde = KernelDensity::Fit(train, options);
    ASSERT_TRUE(kde.ok());

    Matrix queries = MonitorQueries(train, 43);
    std::vector<double> exact = kde.value().LogDensityAll(queries);
    std::vector<double> sorted = exact;
    std::sort(sorted.begin(), sorted.end());
    double threshold = sorted[sorted.size() / 4];

    // Reference: the serial per-query loop.
    std::vector<uint8_t> reference(queries.rows());
    for (size_t i = 0; i < queries.rows(); ++i) {
      reference[i] =
          kde.value().LogDensityBelow(queries.RowPtr(i), threshold) ? 1 : 0;
      EXPECT_EQ(reference[i] != 0, exact[i] < threshold) << "query " << i;
    }
    // Identical bits under every pool width, including the inline pool.
    for (size_t workers : {size_t{0}, size_t{1}, size_t{4}}) {
      ThreadPool pool(workers);
      std::vector<uint8_t> batched(queries.rows(), 255);
      kde.value().ClassifyBelowAllInto(queries, threshold, batched.data(),
                                       &pool);
      EXPECT_EQ(batched, reference) << "workers=" << workers;
    }
  }
}

// ------------------------------------------- persistence equivalence

TEST(KdeMonitorTest, LoadedEstimatorClassifiesIdenticallyAndSizesEqually) {
  for (KdeTreeBackend backend :
       {KdeTreeBackend::kKdTree, KdeTreeBackend::kBallTree}) {
    KdeOptions options;
    options.tree_backend = backend;
    Matrix train = RandomPoints(250, 5, 99);
    Result<KernelDensity> fitted = KernelDensity::Fit(train, options);
    ASSERT_TRUE(fitted.ok());

    BinaryWriter w;
    ASSERT_TRUE(fitted.value().SaveFittedTo(&w).ok());
    BinaryReader r(w.buffer());
    Result<KernelDensity> loaded = KernelDensity::LoadFittedFrom(&r);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    // The classification bounds are rebuilt on load, not serialized —
    // fitted and loaded estimators must still agree bit for bit and
    // report identical resident bytes (the KdeCache accounts evictions
    // by this number, so fitted/loaded asymmetry would drift it).
    EXPECT_EQ(fitted.value().ApproxMemoryBytes(),
              loaded.value().ApproxMemoryBytes());

    Matrix queries = MonitorQueries(train, 101);
    std::vector<double> exact = fitted.value().LogDensityAll(queries);
    std::vector<double> sorted = exact;
    std::sort(sorted.begin(), sorted.end());
    for (double threshold :
         {sorted[2], sorted[sorted.size() / 2], sorted.back()}) {
      for (size_t i = 0; i < queries.rows(); ++i) {
        EXPECT_EQ(
            fitted.value().LogDensityBelow(queries.RowPtr(i), threshold),
            loaded.value().LogDensityBelow(queries.RowPtr(i), threshold))
            << "backend=" << static_cast<int>(backend) << " query=" << i;
      }
    }
  }
}

// ------------------------------------------------- degenerate shapes

TEST(KdeMonitorTest, ClassificationHandlesExtremeThresholds) {
  Matrix train = RandomPoints(64, 3, 7);
  Result<KernelDensity> kde = KernelDensity::Fit(train);
  ASSERT_TRUE(kde.ok());
  Matrix queries = MonitorQueries(train, 8);
  for (size_t i = 0; i < queries.rows(); ++i) {
    const double* q = queries.RowPtr(i);
    double logd = kde.value().LogDensity(q);
    // Thresholds whose kernel-sum conversion under/overflows must route
    // through the fallback and still return the exact comparison.
    for (double threshold : {-1e308, -750.0, 700.0, 1e308}) {
      EXPECT_EQ(kde.value().LogDensityBelow(q, threshold), logd < threshold);
    }
  }
}

TEST(KdeMonitorTest, SinglePointAndDuplicateFitsClassifyExactly) {
  // One training point: the tree is a single leaf; bounds degenerate to
  // the point itself. Duplicated points: zero-width boxes / zero-radius
  // balls at every level.
  for (KdeTreeBackend backend :
       {KdeTreeBackend::kKdTree, KdeTreeBackend::kBallTree}) {
    KdeOptions options;
    options.tree_backend = backend;
    Matrix one(1, 2);
    one.At(0, 0) = 0.5;
    one.At(0, 1) = -0.25;
    Matrix dup(32, 2);
    for (size_t i = 0; i < dup.rows(); ++i) {
      dup.At(i, 0) = 1.0;
      dup.At(i, 1) = 2.0;
    }
    for (const Matrix* train : {&one, &dup}) {
      Result<KernelDensity> kde = KernelDensity::Fit(*train, options);
      ASSERT_TRUE(kde.ok());
      Matrix queries = RandomPoints(40, 2, 13);
      for (size_t i = 0; i < queries.rows(); ++i) {
        const double* q = queries.RowPtr(i);
        double logd = kde.value().LogDensity(q);
        for (double threshold : {logd, logd - 0.5, logd + 0.5, -40.0}) {
          EXPECT_EQ(kde.value().LogDensityBelow(q, threshold),
                    logd < threshold);
        }
      }
    }
  }
}

// --------------------------------------------- floors at the guard value

TEST(KdeMonitorTest, ThresholdsAtTheGuardClassifyExactly) {
  // MonitorQueries' far cluster has a kernel sum of exactly 0, so its
  // log-density is the guard itself; the other queries sit above it. A
  // threshold at or below the guard takes the no-traversal exit, one ulp
  // above it must flag exactly the far cluster.
  for (KdeTreeBackend backend :
       {KdeTreeBackend::kKdTree, KdeTreeBackend::kBallTree}) {
    KdeOptions options;
    options.tree_backend = backend;
    options.leaf_size = 8;
    Matrix train = RandomPoints(300, 3, 77);
    Result<KernelDensity> kde = KernelDensity::Fit(train, options);
    ASSERT_TRUE(kde.ok());
    Matrix queries = MonitorQueries(train, 78);
    std::vector<double> exact = kde.value().LogDensityAll(queries);
    const double guard = kde.value().LogDensityGuard();
    size_t at_guard = static_cast<size_t>(
        std::count(exact.begin(), exact.end(), guard));
    ASSERT_GT(at_guard, 0u);
    ASSERT_LT(at_guard, queries.rows());

    for (double threshold : {std::nextafter(guard, -1e300), guard,
                             std::nextafter(guard, 1e300)}) {
      for (size_t i = 0; i < queries.rows(); ++i) {
        EXPECT_EQ(kde.value().LogDensityBelow(queries.RowPtr(i), threshold),
                  exact[i] < threshold)
            << "backend=" << static_cast<int>(backend) << " query=" << i
            << " threshold=" << threshold;
      }
      for (size_t workers : {size_t{0}, size_t{2}}) {
        ThreadPool pool(workers);
        std::vector<uint8_t> batched(queries.rows(), 255);
        kde.value().ClassifyBelowAllInto(queries, threshold, batched.data(),
                                         &pool);
        for (size_t i = 0; i < queries.rows(); ++i) {
          EXPECT_EQ(batched[i], exact[i] < threshold ? 1 : 0)
              << "backend=" << static_cast<int>(backend)
              << " workers=" << workers << " query=" << i
              << " threshold=" << threshold;
        }
      }
    }
  }
}

/// Training data for a routed snapshot whose calibrated floor collapses
/// onto the guard: 300 Gaussian rows plus 8 rows at the corners of a cube
/// of half-width 12 (2.6% of the fit). Each corner is many bandwidths from
/// every other row, so its leave-one-out kernel sum is exactly 0 and the
/// 1% floor is the guard value.
Dataset GuardFloorTrainingData() {
  Rng rng(90);
  std::vector<double> x0, x1, x2;
  std::vector<int> labels, groups;
  for (size_t i = 0; i < 300; ++i) {
    int g = rng.Bernoulli(0.4) ? 1 : 0;
    x0.push_back(rng.Gaussian(g == 1 ? 0.6 : -0.6, 1.0));
    x1.push_back(rng.Gaussian());
    x2.push_back(rng.Gaussian());
    labels.push_back(x0.back() + 0.5 * x1.back() + rng.Gaussian(0.0, 0.5) > 0.0
                         ? 1
                         : 0);
    groups.push_back(g);
  }
  for (int corner = 0; corner < 8; ++corner) {
    x0.push_back(corner & 1 ? 12.0 : -12.0);
    x1.push_back(corner & 2 ? 12.0 : -12.0);
    x2.push_back(corner & 4 ? 12.0 : -12.0);
    labels.push_back(corner % 2);
    groups.push_back(corner / 4);
  }
  Dataset data;
  EXPECT_TRUE(data.AddNumericColumn("x0", std::move(x0)).ok());
  EXPECT_TRUE(data.AddNumericColumn("x1", std::move(x1)).ok());
  EXPECT_TRUE(data.AddNumericColumn("x2", std::move(x2)).ok());
  EXPECT_TRUE(data.SetLabels(std::move(labels), 2).ok());
  EXPECT_TRUE(data.SetGroups(std::move(groups)).ok());
  return data;
}

TEST(KdeMonitorTest, SnapshotWithFloorAtGuardFlagsIdenticallyInEveryMode) {
  Result<std::shared_ptr<const ModelSnapshot>> snapshot =
      BuildSnapshot(GuardFloorTrainingData(), ServingSpec(Method::kDiffair));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const ModelSnapshot& s = *snapshot.value();
  ASSERT_TRUE(s.routed());
  ASSERT_TRUE(s.has_density());
  const double guard = s.density()->LogDensityGuard();
  ASSERT_EQ(s.density_floor(), guard);

  // Requests: in-distribution rows, the corners themselves, and far rows
  // whose kernel sum is 0 (log-density exactly at the floor).
  Rng rng(91);
  Matrix rows(96, 3);
  for (size_t i = 0; i < rows.rows(); ++i) {
    for (size_t j = 0; j < 3; ++j) {
      double v = rng.Gaussian();
      if (i % 3 == 1) v = (i / 3) % 2 == 0 ? 12.0 : -12.0;
      if (i % 3 == 2) v = 40.0 + v;
      rows.At(i, j) = v;
    }
  }
  auto score = [&](MonitorSpec monitor) {
    ScoreScratch scratch;
    EXPECT_TRUE(s.ScoreBatchInto(rows, &scratch, monitor, nullptr).ok());
    return scratch.results;
  };
  std::vector<ScoreResult> exact = score({MonitorMode::kExact, 16});
  std::vector<ScoreResult> bounded = score({MonitorMode::kBounded, 16});
  std::vector<ScoreResult> sampled = score({MonitorMode::kSampled, 1});
  size_t at_floor = 0;
  for (size_t i = 0; i < rows.rows(); ++i) {
    if (exact[i].log_density == guard) ++at_floor;
    EXPECT_TRUE(bounded[i].density_checked && sampled[i].density_checked);
    EXPECT_EQ(bounded[i].density_outlier, exact[i].density_outlier)
        << "row " << i;
    EXPECT_EQ(sampled[i].density_outlier, exact[i].density_outlier)
        << "row " << i;
  }
  EXPECT_GT(at_floor, 0u);
}

}  // namespace
}  // namespace fairdrift
