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
// issue. The same holds for the floor the monitor compares against:
// LeaveOneOutLogDensityQuantile must return the bits of sorting every
// leave-one-out value and indexing it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
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

// ------------------------------- leave-one-out quantile (floor) selection

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// The reference the selection must reproduce bit for bit: every row's
/// leave-one-out log-density, sorted, indexed at floor(q * (n - 1)).
double SortAndIndex(const std::vector<double>& sorted, double q) {
  const double last = static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<size_t>(q * last)];
}

/// 624 Gaussian rows in d = 4 plus 16 rows at the corners of a cube of
/// half-width 12, interleaved at rows 13, 53, 93, ... (never a multiple of
/// 16, so the pilot sees none of them). Each corner's leave-one-out kernel
/// sum is exactly 0, so 2.5% of the rows sit at the guard and every floor
/// up to the 2% quantile is the guard itself.
Matrix IsolatedRowsPoints() {
  Matrix m = RandomPoints(640, 4, 503);
  int corner = 0;
  for (size_t i = 13; i < m.rows(); i += 40, ++corner) {
    for (size_t j = 0; j < 4; ++j) {
      m.At(i, j) = (corner >> j) & 1 ? 12.0 : -12.0;
    }
  }
  return m;
}

/// 2000 Gaussian rows in d = 2, with 12 rows moved 30 degrees apart onto
/// a ring of radius 4.7 to 5.33. A ring row's leave-one-out sum is at most
/// 2.5e-5 (0 for two of them), so with the pilot threshold on the ring no
/// bound can prove a ring row below the clearance level (the slack exceeds
/// its whole neighbour mass): it stays undecided and only its exact value
/// can place it. The inner rows 0, 160, 320 are pilot rows; the outer ones
/// are not, so the minimum is a row the pilot never saw.
Matrix RingRowsPoints() {
  Matrix m = RandomPoints(2000, 2, 511);
  for (size_t k = 0; k < 12; ++k) {
    const size_t row = k < 3 ? 160 * k : 160 * k + 5;
    const double radius = k < 3 ? 4.7 + 0.05 * k : 5.0 + 0.03 * k;
    const double angle = 0.5235987755982988 * static_cast<double>(k);
    m.At(row, 0) = radius * std::cos(angle);
    m.At(row, 1) = radius * std::sin(angle);
  }
  return m;
}

struct SelectionCase {
  std::string name;
  Matrix fit;
  Matrix rows;  // the queries: the fitted points, unless the case says so
  double atol = 1e-4;
};

std::vector<SelectionCase> SelectionCases() {
  std::vector<SelectionCase> cases;
  for (double atol : {1e-4, 0.0}) {
    // Exact sums (atol 0) are quadratic; a smaller cloud keeps them quick.
    std::string suffix = atol > 0.0 ? "" : "/atol0";
    size_t n = atol > 0.0 ? 2000 : 1000;
    Matrix d2 = RandomPoints(n, 2, 501);
    cases.push_back({"gaussian_d2" + suffix, d2, d2, atol});
    Matrix d6 = RandomPoints(n, 6, 502);
    cases.push_back({"gaussian_d6" + suffix, d6, d6, atol});
  }
  // Every 16th row spread four times wider: the pilot sees only the
  // sparse rows, its threshold undershoots the quantiles above their
  // share, and the selection must take the rank fallback there.
  Matrix sparse_pilot = RandomPoints(2000, 2, 510);
  for (size_t i = 0; i < sparse_pilot.rows(); i += 16) {
    for (size_t j = 0; j < 2; ++j) sparse_pilot.At(i, j) *= 4.0;
  }
  cases.push_back({"sparse_pilot_rows", sparse_pilot, sparse_pilot});
  Matrix isolated = IsolatedRowsPoints();
  cases.push_back({"isolated", isolated, isolated});
  Matrix ring = RingRowsPoints();
  cases.push_back({"ring", ring, ring});
  Matrix dup(64, 2);
  for (size_t i = 0; i < dup.rows(); ++i) {
    dup.At(i, 0) = 1.0;
    dup.At(i, 1) = 2.0;
  }
  cases.push_back({"duplicates", dup, dup});
  Matrix one = RandomPoints(1, 3, 504);
  cases.push_back({"n1", one, one});
  Matrix two = RandomPoints(2, 3, 505);
  cases.push_back({"n2", two, two});
  // A NaN coordinate in the fit: the NaN row's own value is NaN, so the
  // selection must fall back to sorting the full vector.
  Matrix nan_fit = RandomPoints(500, 3, 506);
  nan_fit.At(37, 1) = std::numeric_limits<double>::quiet_NaN();
  cases.push_back({"nan_in_fit", nan_fit, nan_fit});
  // A clean fit queried with NaN rows among its points.
  Matrix clean = RandomPoints(500, 3, 507);
  Matrix nan_rows = clean;
  for (size_t i : {1, 37, 38, 255, 498}) {
    nan_rows.At(i, 1) = std::numeric_limits<double>::quiet_NaN();
  }
  cases.push_back({"nan_query_rows", clean, nan_rows});
  return cases;
}

TEST(KdeMonitorTest, LooQuantileIsSortAndIndexBitwise) {
  const double kQs[] = {0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.5, 1.0};
  ThreadPool inline_pool(0);
  ThreadPool two_workers(2);
  for (const SelectionCase& c : SelectionCases()) {
    for (KdeTreeBackend backend :
         {KdeTreeBackend::kKdTree, KdeTreeBackend::kBallTree}) {
      KdeOptions options;
      options.tree_backend = backend;
      options.approximation_atol = c.atol;
      Result<KernelDensity> kde = KernelDensity::Fit(c.fit, options);
      ASSERT_TRUE(kde.ok()) << c.name;
      std::vector<double> sorted = kde.value().LeaveOneOutLogDensityAll(c.rows);
      std::sort(sorted.begin(), sorted.end());
      for (double q : kQs) {
        const double expected = SortAndIndex(sorted, q);
        for (ThreadPool* pool : {&inline_pool, &two_workers}) {
          Result<double> got =
              kde.value().LeaveOneOutLogDensityQuantile(c.rows, q, pool);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_EQ(Bits(got.value()), Bits(expected))
              << c.name << " backend=" << static_cast<int>(backend)
              << " q=" << q << " workers=" << pool->num_threads()
              << " got=" << got.value() << " expected=" << expected;
        }
      }
    }
  }
}

TEST(KdeMonitorTest, LooQuantileFloorSitsAtTheGuardWithIsolatedRows) {
  // The case the clearance floor exists for: the pilot threshold is above
  // the guard, the answer is the guard, and every isolated row has a
  // leave-one-out sum of exactly 0 — none of them may be cleared.
  Matrix rows = IsolatedRowsPoints();
  Result<KernelDensity> kde = KernelDensity::Fit(rows);
  ASSERT_TRUE(kde.ok());
  for (double q : {0.0, 0.01, 0.02}) {
    Result<double> floor = kde.value().LeaveOneOutLogDensityQuantile(rows, q);
    ASSERT_TRUE(floor.ok());
    EXPECT_EQ(floor.value(), kde.value().LogDensityGuard()) << "q=" << q;
  }
}

TEST(KdeMonitorTest, LooClearanceSumKeepsALogTwoMargin) {
  // A row whose kernel sum is exactly the clearance level reports a
  // leave-one-out log-density log 2 above the threshold (or, where the
  // 1e-9 floor binds, above it anyway), with room for every rounding.
  for (double log_norm : {-30.0, -8.5, 0.0, 4.25}) {
    for (double above_norm :
         {-745.0, -300.0, -25.0, -21.0, -15.0, -5.0, 0.0, 3.0, 6.0}) {
      const double threshold = log_norm + above_norm;
      const double sum = kde_internal::LooClearanceSum(threshold, log_norm);
      const double loo = std::log(sum - 1.0) + log_norm;
      if (2.0 * std::exp(above_norm) >= 1e-9) {
        EXPECT_GT(loo - threshold, std::log(2.0) - 1e-6)
            << "log_norm=" << log_norm << " threshold=" << threshold;
      } else {
        EXPECT_GT(loo, threshold + 1.0)
            << "log_norm=" << log_norm << " threshold=" << threshold;
      }
    }
  }
}

TEST(KdeMonitorTest, LooQuantileRejectsBadInput) {
  Matrix rows = RandomPoints(50, 2, 508);
  Result<KernelDensity> kde = KernelDensity::Fit(rows);
  ASSERT_TRUE(kde.ok());
  for (double q : {std::numeric_limits<double>::quiet_NaN(), -0.01, 1.01,
                   std::numeric_limits<double>::infinity()}) {
    Result<double> got = kde.value().LeaveOneOutLogDensityQuantile(rows, q);
    ASSERT_FALSE(got.ok()) << "q=" << q;
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(kde.value()
                .LeaveOneOutLogDensityQuantile(Matrix(0, 2), 0.01)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(kde.value()
                .LeaveOneOutLogDensityQuantile(RandomPoints(5, 3, 509), 0.01)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fairdrift
