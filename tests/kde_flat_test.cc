// Tests for the flat iterative tree traversal, the per-thread traversal
// scratch, the NegExp kernel, and the cross-trial KdeCache.
//
// The traversal contract is strict: the iterative stack machine must be
// *bitwise* equal to the recursive reference (GaussianKernelSumRecursive)
// for every dimension, backend, and tolerance, and steady-state queries
// must perform zero heap allocations. The latter is asserted with a
// counting global operator new: the override below counts every
// allocation in this test binary, and the hot-path assertions measure the
// counter delta across a batch of warmed-up queries.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "kde/balltree.h"
#include "kde/kde.h"
#include "kde/kde_cache.h"
#include "kde/kdtree.h"
#include "kde/leaf_scan.h"
#include "kde/negexp.h"
#include "kde/scratch.h"
#include "util/rng.h"

namespace {
std::atomic<size_t> g_allocation_count{0};
}  // namespace

// Counting allocator: every form of operator new funnels through malloc
// with the counter bumped; every delete matches with free. The nothrow
// forms are replaced too: std::stable_sort's temporary buffer comes from
// new(nothrow), and a sanitizer's own new(nothrow) paired with the free
// below is an alloc-dealloc mismatch.
void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

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

// --------------------------------------- iterative vs recursive, bitwise

TEST(FlatTraversalTest, KdTreeIterativeMatchesRecursiveBitwise) {
  for (size_t d = 1; d <= 8; ++d) {
    Matrix pts = RandomPoints(300, d, 500 + d);
    Result<KdTree> tree = KdTree::Build(pts, 8);  // deep tree
    ASSERT_TRUE(tree.ok()) << "dim " << d;
    Rng rng(600 + d);
    std::vector<double> inv_h(d);
    for (double& v : inv_h) v = 0.5 + rng.Uniform(0.0, 2.0);
    for (double atol : {0.0, 1e-3, 1e-1}) {
      for (int trial = 0; trial < 25; ++trial) {
        std::vector<double> q(d);
        for (double& v : q) v = rng.Gaussian(0.0, 2.0);
        double iterative = tree->GaussianKernelSum(q, inv_h, atol);
        double recursive = tree->GaussianKernelSumRecursive(q, inv_h, atol);
        EXPECT_EQ(iterative, recursive)
            << "dim " << d << ", atol " << atol << ", trial " << trial;
      }
    }
  }
}

TEST(FlatTraversalTest, BallTreeIterativeMatchesRecursiveBitwise) {
  for (size_t d = 1; d <= 8; ++d) {
    Matrix pts = RandomPoints(300, d, 700 + d);
    Result<BallTree> tree = BallTree::Build(pts, 8);
    ASSERT_TRUE(tree.ok()) << "dim " << d;
    Rng rng(800 + d);
    std::vector<double> inv_h(d);
    for (double& v : inv_h) v = 0.5 + rng.Uniform(0.0, 2.0);
    for (double atol : {0.0, 1e-3, 1e-1}) {
      for (int trial = 0; trial < 25; ++trial) {
        std::vector<double> q(d);
        for (double& v : q) v = rng.Gaussian(0.0, 2.0);
        double iterative = tree->GaussianKernelSum(q, inv_h, atol);
        double recursive = tree->GaussianKernelSumRecursive(q, inv_h, atol);
        EXPECT_EQ(iterative, recursive)
            << "dim " << d << ", atol " << atol << ", trial " << trial;
      }
    }
  }
}

// ------------------------------------------------- zero-allocation paths

TEST(FlatTraversalTest, KernelSumAllocatesNothingAfterWarmup) {
  Matrix pts = RandomPoints(1000, 3, 42);
  Result<KdTree> kd = KdTree::Build(pts, 16);
  Result<BallTree> ball = BallTree::Build(pts, 16);
  ASSERT_TRUE(kd.ok() && ball.ok());
  std::vector<double> inv_h = {1.0, 2.0, 0.5};
  std::vector<double> q = {0.1, -0.3, 0.2};
  TraversalScratch scratch;
  // Warm up: grows the scratch stacks to the trees' depth.
  (void)kd->GaussianKernelSum(q.data(), inv_h.data(), 1e-4, &scratch);
  (void)kd->GaussianKernelSum(q.data(), inv_h.data(), 0.0, &scratch);
  (void)ball->GaussianKernelSum(q.data(), inv_h.data(), 1e-4, &scratch);
  (void)ball->GaussianKernelSum(q.data(), inv_h.data(), 0.0, &scratch);

  size_t before = g_allocation_count.load(std::memory_order_relaxed);
  double acc = 0.0;
  for (int i = 0; i < 200; ++i) {
    q[0] = 0.01 * i;
    acc += kd->GaussianKernelSum(q.data(), inv_h.data(), 1e-4, &scratch);
    acc += kd->GaussianKernelSum(q.data(), inv_h.data(), 0.0, &scratch);
    acc += ball->GaussianKernelSum(q.data(), inv_h.data(), 1e-4, &scratch);
  }
  size_t after = g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "kernel sums allocated on the hot path";
  EXPECT_GT(acc, 0.0);
}

TEST(FlatTraversalTest, NearestNeighborsAllocatesNothingAfterWarmup) {
  Matrix pts = RandomPoints(800, 2, 43);
  Result<KdTree> kd = KdTree::Build(pts, 16);
  Result<BallTree> ball = BallTree::Build(pts, 16);
  ASSERT_TRUE(kd.ok() && ball.ok());
  std::vector<double> q = {0.0, 0.0};
  TraversalScratch scratch;
  std::vector<size_t> out;
  kd->NearestNeighbors(q.data(), 10, &scratch, &out);
  ball->NearestNeighbors(q.data(), 10, &scratch, &out);

  size_t before = g_allocation_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 200; ++i) {
    q[0] = 0.01 * i;
    kd->NearestNeighbors(q.data(), 10, &scratch, &out);
    ASSERT_EQ(out.size(), 10u);
    ball->NearestNeighbors(q.data(), 10, &scratch, &out);
    ASSERT_EQ(out.size(), 10u);
  }
  size_t after = g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "kNN allocated on the hot path";
}

// The span-based kNN must agree with the (allocating) vector wrapper.
TEST(FlatTraversalTest, SpanKnnMatchesWrapper) {
  Matrix pts = RandomPoints(300, 3, 44);
  Result<KdTree> tree = KdTree::Build(pts, 8);
  ASSERT_TRUE(tree.ok());
  Rng rng(45);
  TraversalScratch scratch;
  std::vector<size_t> out;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> q = {rng.Gaussian(), rng.Gaussian(), rng.Gaussian()};
    tree->NearestNeighbors(q.data(), 7, &scratch, &out);
    EXPECT_EQ(out, tree->NearestNeighbors(q, 7));
  }
}

// ----------------------------------------------------------------- NegExp

TEST(NegExpTest, MatchesStdExpTightly) {
  // The KDE's evaluation tolerance is 1e-9 relative; NegExp holds ~1e-14.
  Rng rng(46);
  for (int i = 0; i < 20000; ++i) {
    double x = -rng.Uniform(0.0, 700.0);
    double expected = std::exp(x);
    EXPECT_NEAR(NegExp(x), expected, 1e-13 * expected) << "x = " << x;
  }
  EXPECT_EQ(NegExp(0.0), 1.0);
  EXPECT_EQ(NegExp(-800.0), 0.0);  // flush-to-zero past exp underflow
  EXPECT_EQ(NegExp(-1e9), 0.0);
}

TEST(NegExpTest, PairMatchesScalarBitwise) {
  Rng rng(47);
  for (int i = 0; i < 20000; ++i) {
    double x0 = -rng.Uniform(0.0, 750.0);
    double x1 = -rng.Uniform(0.0, 750.0);
    double e0, e1;
    NegExpPair(x0, x1, &e0, &e1);
    EXPECT_EQ(e0, NegExp(x0)) << "x0 = " << x0;
    EXPECT_EQ(e1, NegExp(x1)) << "x1 = " << x1;
  }
}

#if defined(FAIRDRIFT_NEGEXP_HAVE_AVX2_PATH)
// The leaf scan's four-wide exp, from and to memory.
__attribute__((target("avx2"))) void NegExp4Avx2Memory(const double* x,
                                                       double* e) {
  _mm256_storeu_pd(e, negexp_internal::NegExp4Avx2(_mm256_loadu_pd(x)));
}
#endif

TEST(NegExpTest, QuadMatchesScalarBitwise) {
#if defined(FAIRDRIFT_NEGEXP_HAVE_AVX2_PATH)
  if (!HasAvx2()) GTEST_SKIP() << "this CPU has no AVX2";
  // [-750, 0] spans the flush-to-zero edge; the fixed probes pin the edge
  // itself, its neighbours, and both ends.
  std::vector<double> xs = {0.0,
                            -0.0,
                            -708.0,
                            std::nextafter(-708.0, 0.0),
                            std::nextafter(-708.0, -1e300),
                            -750.0,
                            -1e-300,
                            -0.5};
  Rng rng(48);
  for (int i = 0; i < 20000; ++i) xs.push_back(-rng.Uniform(0.0, 750.0));
  while (xs.size() % 4 != 0) xs.push_back(-rng.Uniform(0.0, 750.0));
  for (size_t i = 0; i < xs.size(); i += 4) {
    double e[4];
    NegExp4Avx2Memory(&xs[i], e);
    for (size_t k = 0; k < 4; ++k) {
      EXPECT_EQ(e[k], NegExp(xs[i + k])) << "x = " << xs[i + k];
    }
  }
#else
  GTEST_SKIP() << "no AVX2 path in this build";
#endif
}

// -------------------------------------------------------- leaf kernel scan

// The leaf scan as a plain scalar loop: u = 0, u += ((x - q) * ib)^2 in
// dimension order, kernel NegExp(-0.5 * u), added in row order. Both scans
// in kde/leaf_scan.h must reproduce it bit for bit.
double ReferenceLeafScan(const Matrix& points, size_t begin, size_t end,
                         size_t dim, const double* query,
                         const double* inv_bandwidth) {
  double acc = 0.0;
  for (size_t i = begin; i < end; ++i) {
    const double* row = points.RowPtr(i);
    double u = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      double d = (row[j] - query[j]) * inv_bandwidth[j];
      u += d * d;
    }
    acc += NegExp(-0.5 * u);
  }
  return acc;
}

enum class LeafPoints { kRandom, kDuplicates, kFar, kMixed };

// `n` points around `query`: Gaussian draws (kernels across the whole
// range), exact copies of the query (kernel exactly 1), points far enough
// that -0.5 * u < -708 (kernel flushed to 0), or a per-point mix of the
// three, so one vector can hold lanes of every kind. The `extra_cols`
// columns after the first query.size() hold values the scan must skip.
Matrix LeafPointSet(LeafPoints kind, size_t n, const std::vector<double>& query,
                    size_t extra_cols, Rng* rng) {
  size_t dim = query.size();
  Matrix m(n, dim + extra_cols);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = dim; j < dim + extra_cols; ++j) {
      m.At(i, j) = rng->Gaussian(0.0, 50.0);
    }
    LeafPoints k = kind;
    if (k == LeafPoints::kMixed) {
      k = static_cast<LeafPoints>(rng->UniformInt(0, 2));
    }
    for (size_t j = 0; j < dim; ++j) {
      switch (k) {
        case LeafPoints::kDuplicates:
          m.At(i, j) = query[j];
          break;
        case LeafPoints::kFar:
          m.At(i, j) =
              query[j] + (j % 2 == 0 ? 100.0 : -100.0) + rng->Gaussian();
          break;
        default:
          m.At(i, j) = query[j] + rng->Gaussian(0.0, 1.5);
          break;
      }
    }
  }
  return m;
}

using LeafScanFn = double (*)(const Matrix&, size_t, size_t, size_t,
                              const double*, const double*);

// Checks `scan` against ReferenceLeafScan over dims 1-12, leaf lengths
// 1-70 (16-row blocks, leftover quads, and the pair and single-row tails
// in every combination), every point set, and matrices as wide as `dim`
// or wider (rows then lie points.cols() apart, not dim).
void ExpectScanMatchesReference(LeafScanFn scan) {
  Rng rng(62);
  for (size_t dim = 1; dim <= 12; ++dim) {
    std::vector<double> query(dim);
    std::vector<double> inv_h(dim);
    for (size_t j = 0; j < dim; ++j) {
      query[j] = rng.Gaussian();
      inv_h[j] = 0.5 + rng.Uniform(0.0, 2.0);
    }
    for (LeafPoints kind : {LeafPoints::kRandom, LeafPoints::kDuplicates,
                            LeafPoints::kFar, LeafPoints::kMixed}) {
      for (size_t extra_cols : {size_t{0}, size_t{3}}) {
        // Rows start at an offset inside the matrix: the scans must honour
        // `begin`.
        const size_t offset = 3;
        Matrix points =
            LeafPointSet(kind, offset + 70, query, extra_cols, &rng);
        for (size_t len = 1; len <= 70; ++len) {
          size_t begin = offset;
          size_t end = offset + len;
          double expected = ReferenceLeafScan(points, begin, end, dim,
                                              query.data(), inv_h.data());
          if (kind == LeafPoints::kDuplicates) {
            ASSERT_EQ(expected, static_cast<double>(len));
          }
          if (kind == LeafPoints::kFar) {
            ASSERT_EQ(expected, 0.0);
          }
          EXPECT_EQ(scan(points, begin, end, dim, query.data(), inv_h.data()),
                    expected)
              << "dim " << dim << ", point set " << static_cast<int>(kind)
              << ", extra columns " << extra_cols << ", leaf length " << len;
        }
      }
    }
  }
}

TEST(LeafScanTest, PortableScanMatchesScalarReferenceBitwise) {
  ExpectScanMatchesReference(&leaf_scan_internal::LeafKernelSumPortable);
}

TEST(LeafScanTest, Avx2ScanMatchesScalarReferenceBitwise) {
#if defined(FAIRDRIFT_NEGEXP_HAVE_AVX2_PATH)
  if (!HasAvx2()) GTEST_SKIP() << "this CPU has no AVX2";
  ExpectScanMatchesReference(&leaf_scan_internal::LeafKernelSumAvx2);
#else
  GTEST_SKIP() << "no AVX2 scan in this build";
#endif
}

TEST(LeafScanTest, DispatchedScanMatchesScalarReferenceBitwise) {
  ExpectScanMatchesReference(&LeafPairwiseKernelSum);
}

// --------------------------------------------------------------- KdeCache

TEST(KdeCacheTest, SameDataAndOptionsHit) {
  KdeCache cache(8);
  Matrix data = RandomPoints(120, 3, 48);
  KdeOptions options;
  auto a = cache.FitOrGet(data, options);
  auto b = cache.FitOrGet(data, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().get(), b.value().get());  // literally the same fit
  KdeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(KdeCacheTest, OptionChangesMiss) {
  KdeCache cache(8);
  Matrix data = RandomPoints(120, 3, 49);
  KdeOptions options;
  ASSERT_TRUE(cache.FitOrGet(data, options).ok());
  KdeOptions other = options;
  other.leaf_size = 8;
  ASSERT_TRUE(cache.FitOrGet(data, other).ok());
  KdeOptions third = options;
  third.tree_backend = KdeTreeBackend::kBallTree;
  ASSERT_TRUE(cache.FitOrGet(data, third).ok());
  KdeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.entries, 3u);
}

TEST(KdeCacheTest, DataMutationInvalidates) {
  KdeCache cache(8);
  Matrix data = RandomPoints(120, 3, 50);
  KdeOptions options;
  ASSERT_TRUE(cache.FitOrGet(data, options).ok());
  data.At(7, 1) += 1e-9;  // even a one-ulp-ish edit must re-key
  ASSERT_TRUE(cache.FitOrGet(data, options).ok());
  KdeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(KdeCacheTest, ClearDropsEntriesButKeepsCounters) {
  KdeCache cache(8);
  Matrix data = RandomPoints(60, 2, 51);
  ASSERT_TRUE(cache.FitOrGet(data, {}).ok());
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);  // counters survive Clear
  ASSERT_TRUE(cache.FitOrGet(data, {}).ok());
  EXPECT_EQ(cache.stats().misses, 2u);  // refit after Clear, not a hit
  cache.ResetStats();
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().entries, 1u);  // ResetStats keeps entries
}

TEST(KdeCacheTest, LruEvictionBoundsEntries) {
  KdeCache cache(2);
  KdeOptions options;
  Matrix a = RandomPoints(40, 2, 52);
  Matrix b = RandomPoints(40, 2, 53);
  Matrix c = RandomPoints(40, 2, 54);
  ASSERT_TRUE(cache.FitOrGet(a, options).ok());
  ASSERT_TRUE(cache.FitOrGet(b, options).ok());
  ASSERT_TRUE(cache.FitOrGet(a, options).ok());  // refresh a; b is now LRU
  ASSERT_TRUE(cache.FitOrGet(c, options).ok());  // evicts b
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  ASSERT_TRUE(cache.FitOrGet(a, options).ok());  // still cached
  EXPECT_EQ(cache.stats().hits, 2u);
  ASSERT_TRUE(cache.FitOrGet(b, options).ok());  // evicted: a miss again
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(KdeCacheTest, CachedRankingMatchesUncached) {
  Matrix data = RandomPoints(150, 4, 55);
  KdeOptions cached;
  cached.use_fit_cache = true;
  KdeOptions uncached;
  uncached.use_fit_cache = false;
  Result<std::vector<size_t>> a = DensityRanking(data, cached);
  Result<std::vector<size_t>> b = DensityRanking(data, uncached);
  Result<std::vector<size_t>> c = DensityRanking(data, cached);  // cache hit
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(a.value(), c.value());
}

TEST(KdeCacheTest, FingerprintSeparatesShapes) {
  // Same flat contents, different shape, must not collide.
  Matrix wide(2, 6, 1.0);
  Matrix tall(6, 2, 1.0);
  EXPECT_FALSE(FingerprintMatrix(wide) == FingerprintMatrix(tall));
}

TEST(KdeCacheTest, HintMemoSkipsRehashButKeepsContentKeys) {
  KdeCache cache(8);
  Matrix data = RandomPoints(120, 3, 56);
  KdeOptions options;
  KdeCacheHint hint{77, 3};
  auto a = cache.FitOrGet(data, options, hint);
  auto b = cache.FitOrGet(data, options, hint);  // memo hit: no rehash
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().get(), b.value().get());
  KdeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.fingerprint_memo_misses, 1u);
  EXPECT_EQ(stats.fingerprint_memo_hits, 1u);
  EXPECT_EQ(stats.hits, 1u);

  // A different (version, slot) over identical contents rehashes once but
  // still lands on the same *content* key — the cross-trial reuse that
  // makes the cache effective across re-splits.
  auto c = cache.FitOrGet(data, options, KdeCacheHint{78, 3});
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value().get(), a.value().get());
  stats = cache.stats();
  EXPECT_EQ(stats.fingerprint_memo_misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(KdeCacheTest, HintSpacesNamespaceSlots) {
  // The density filter's cell (0, 0) and a whole-dataset view share
  // slot 0 under the same dataset version; their spaces must keep the
  // memo entries — and therefore the fitted estimators — apart.
  KdeCache cache(8);
  Matrix full = RandomPoints(120, 3, 61);
  std::vector<size_t> head(40);
  for (size_t i = 0; i < head.size(); ++i) head[i] = i;
  Matrix cell = full.SelectRows(head);

  KdeOptions options;
  auto cell_kde = cache.FitOrGet(
      cell, options, KdeCacheHint{91, 0, kKdeHintSpaceDensityFilterCell});
  auto full_kde = cache.FitOrGet(
      full, options, KdeCacheHint{91, 0, kKdeHintSpaceFullDataset});
  ASSERT_TRUE(cell_kde.ok() && full_kde.ok());
  EXPECT_NE(cell_kde.value().get(), full_kde.value().get());
  EXPECT_EQ(cell_kde.value()->train_size(), 40u);
  EXPECT_EQ(full_kde.value()->train_size(), 120u);
}

TEST(KdeCacheTest, ByteBoundedEviction) {
  KdeCache cache(/*capacity=*/64, /*max_bytes=*/1);  // everything evicts
  Matrix a = RandomPoints(60, 2, 57);
  Matrix b = RandomPoints(60, 2, 58);
  ASSERT_TRUE(cache.FitOrGet(a, {}).ok());
  EXPECT_EQ(cache.stats().entries, 0u);  // over the byte bound immediately
  EXPECT_EQ(cache.stats().evictions, 1u);

  cache.set_max_bytes(KdeCache::kDefaultMaxBytes);
  ASSERT_TRUE(cache.FitOrGet(a, {}).ok());
  ASSERT_TRUE(cache.FitOrGet(b, {}).ok());
  KdeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.resident_bytes, 0u);

  // Shrinking the byte budget evicts LRU-first down to the new bound.
  size_t shrunken = stats.resident_bytes / 2;
  cache.set_max_bytes(shrunken);
  stats = cache.stats();
  EXPECT_LT(stats.entries, 2u);
  EXPECT_LE(stats.resident_bytes, shrunken);

  // Eviction accounting is exact, not saturating: once every entry is
  // evicted the resident-byte counter must read exactly zero, otherwise
  // each fit/evict cycle leaks phantom bytes and the cache's effective
  // capacity shrinks over time.
  cache.set_max_bytes(1);
  stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);

  // Refilling after a full eviction starts from a clean ledger: the
  // resident bytes of a single re-admitted estimator match a fresh
  // cache's accounting for the same data.
  cache.set_max_bytes(KdeCache::kDefaultMaxBytes);
  ASSERT_TRUE(cache.FitOrGet(a, {}).ok());
  KdeCache fresh(/*capacity=*/64, /*max_bytes=*/KdeCache::kDefaultMaxBytes);
  ASSERT_TRUE(fresh.FitOrGet(a, {}).ok());
  EXPECT_EQ(cache.stats().resident_bytes, fresh.stats().resident_bytes);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(KdeCacheTest, EstimatorReportsPlausibleMemory) {
  Matrix data = RandomPoints(256, 4, 59);
  Result<KernelDensity> kde = KernelDensity::Fit(data, {});
  ASSERT_TRUE(kde.ok());
  // At least the raw points (256 * 4 doubles), well under a megabyte.
  EXPECT_GE(kde->ApproxMemoryBytes(), 256u * 4u * sizeof(double));
  EXPECT_LT(kde->ApproxMemoryBytes(), 1u << 20);
}

TEST(KdeCacheTest, DatasetVersionTagTracksMutation) {
  Dataset data;
  ASSERT_TRUE(data.AddNumericColumn("x", {1.0, 2.0, 3.0}).ok());
  uint64_t after_build = data.version();
  EXPECT_NE(after_build, 0u);

  Dataset copy = data;
  EXPECT_EQ(copy.version(), after_build);  // identical contents, same tag

  ASSERT_TRUE(copy.SetWeights({1.0, 2.0, 1.0}).ok());
  EXPECT_NE(copy.version(), after_build);   // mutation re-stamps
  EXPECT_EQ(data.version(), after_build);   // the source is untouched

  uint64_t before_touch = data.version();
  (void)data.mutable_weights();  // conservative: the escape hatch re-stamps
  EXPECT_NE(data.version(), before_touch);
}

}  // namespace
}  // namespace fairdrift
