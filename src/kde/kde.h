// Gaussian kernel density estimation with KD-tree acceleration.
//
// Used by Algorithm 3 of the paper to rank the tuples of each
// (group x label) cell by density and keep only the densest fraction before
// deriving conformance constraints.

#ifndef FAIRDRIFT_KDE_KDE_H_
#define FAIRDRIFT_KDE_KDE_H_

#include <cstdint>
#include <vector>

#include "kde/balltree.h"
#include "kde/bandwidth.h"
#include "kde/kdtree.h"
#include "kde/scratch.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace fairdrift {

class ThreadPool;  // util/parallel.h; only pointers appear in this header
class BinaryWriter;  // util/binary_io.h
class BinaryReader;

/// Spatial index accelerating the kernel sums. KD boxes prune tighter in
/// low dimensions; ball bounds stay O(d) per node and are the structure
/// the paper names for higher-dimensional inputs (§III-C, "m > 20").
enum class KdeTreeBackend {
  kKdTree,
  kBallTree,
};

/// Options for fitting a KernelDensity estimator.
struct KdeOptions {
  BandwidthRule bandwidth_rule = BandwidthRule::kScott;
  /// Per-point kernel spread below which a tree node is approximated by its
  /// midpoint. 0 computes the exact sum.
  double approximation_atol = 1e-4;
  size_t leaf_size = 32;
  KdeTreeBackend tree_backend = KdeTreeBackend::kKdTree;
  /// When set, DensityRanking and the density filter resolve their fits
  /// through GlobalKdeCache() (FitThroughCache in kde_cache.h), so repeated
  /// trials / tuning passes over identical data reuse one fitted estimator
  /// instead of refitting.
  /// Identical data + options fit identically, so results are unchanged.
  /// Not part of the cache key.
  bool use_fit_cache = true;
};

/// Fitted Gaussian product-kernel density estimator.
class KernelDensity {
 public:
  /// Fits the estimator on the rows of `data`. Fails on empty input.
  static Result<KernelDensity> Fit(const Matrix& data,
                                   const KdeOptions& options = {});

  /// Process-wide count of completed KernelDensity::Fit calls. The bench
  /// summaries pair this with the cache counters to show how many refits
  /// the KdeCache elided.
  static uint64_t TotalFitCount();

  /// Density estimate at `point` (properly normalized pdf value).
  double Evaluate(const std::vector<double>& point) const;

  /// Density at a raw attribute row (no per-query allocations; uses the
  /// calling thread's TraversalScratch).
  double Evaluate(const double* point) const;

  /// Log-density at `point` (LogDensityGuard() instead of -inf).
  double LogDensity(const std::vector<double>& point) const;

  /// Log-density at a raw attribute row (allocation-free).
  double LogDensity(const double* point) const;

  /// Densities of every row of `queries`. Queries are independent
  /// tree-pruned kernel sums, evaluated in parallel on `pool` (the global
  /// pool when null). Results are bitwise identical for every worker
  /// count, including an inline 0-worker pool.
  std::vector<double> EvaluateAll(const Matrix& queries,
                                  ThreadPool* pool = nullptr) const;

  /// EvaluateAll into a caller-owned span of queries.rows() doubles — no
  /// output allocation, and on a 0-worker pool no task-dispatch
  /// allocations either (the serving path's zero-allocation contract).
  void EvaluateAllInto(const Matrix& queries, double* out,
                       ThreadPool* pool = nullptr) const;

  /// Log-densities of every row of `queries` (same floor guard as
  /// LogDensity), batched and parallel like EvaluateAll.
  std::vector<double> LogDensityAll(const Matrix& queries,
                                    ThreadPool* pool = nullptr) const;

  /// LogDensityAll into a caller-owned span (EvaluateAllInto contract).
  void LogDensityAllInto(const Matrix& queries, double* out,
                         ThreadPool* pool = nullptr) const;

  /// Leave-one-out log-densities: LogDensity with the query's own kernel
  /// term (exp(0) = 1) subtracted from the kernel sum before taking the
  /// log. Only meaningful when every row of `queries` is one of the
  /// fitted points: these are the values the density monitor's floor is a
  /// quantile of. A training row's plain LogDensity is inflated by its
  /// self-term, which a serve-time query never carries; in small-n /
  /// high-d regimes the self-term dominates the sum, so a floor quantiled
  /// over self-inflated values systematically over-flags in-distribution
  /// traffic. The same fit-time normalization is kept (log n, not
  /// log(n-1)): the floor must live on the same scale as the serve-time
  /// LogDensity it is compared against, and the uniform log(n/(n-1))
  /// offset is irrelevant to a quantile threshold. Rows whose neighbors
  /// contribute nothing hit the same underflow floor as LogDensity. The
  /// floor calibration itself calls LeaveOneOutLogDensityQuantile, which
  /// computes only the rows its quantile can depend on; this full pass is
  /// its reference and its fallback.
  std::vector<double> LeaveOneOutLogDensityAll(
      const Matrix& queries, ThreadPool* pool = nullptr) const;

  /// sorted(LeaveOneOutLogDensityAll(queries))[floor(q * (n - 1))], bit
  /// for bit, for every worker count and tree backend: the density
  /// monitor's floor (core/artifacts.cc). It computes every 16th row
  /// exactly (the pilot) and takes the pilot's min(1, 2q + 0.01) quantile
  /// as a provisional threshold T. ClassifyKernelSum then clears every row
  /// whose kernel sum provably reaches kde_internal::LooClearanceSum(T);
  /// such a row's leave-one-out log-density exceeds T by about log 2, so
  /// only the rows not cleared are computed exactly. When the candidate
  /// of rank floor(q * (n - 1)) is <= T, it is the answer: every cleared
  /// row lies above it. Otherwise, or when any computed value is NaN, the
  /// rows still missing are computed and the full vector is sorted, so no
  /// row is ever computed twice; 2q + 0.01 >= 1 takes that single pass
  /// directly. Fails InvalidArgument on an empty matrix, a column count
  /// other than the fit's, or a q that is NaN or outside [0, 1].
  Result<double> LeaveOneOutLogDensityQuantile(
      const Matrix& queries, double q, ThreadPool* pool = nullptr) const;

  /// The k densest fitted rows: exactly the first k entries of
  /// DescendingDensityOrder(EvaluateAll(fitted rows)) — density
  /// descending, ties by row index — returned as fitted-row indices in
  /// ascending order (every row when k >= train_size()). The density
  /// filter's per-cell top k (core/density_filter.h).
  ///
  /// A KD-backed estimator from Fit runs the symmetric dual-tree pass
  /// (KdTree::SymmetricKernelSums) once, turns its sums into a proven
  /// interval on each row's Evaluate value (see the bound in kde.cc), and
  /// places every row whose interval clears the top k's boundary without
  /// evaluating it; only the rows left undecided get Evaluate, and they
  /// fill the places left in (density, index) order. A BallTree backend, a
  /// loaded estimator (its payload is not trusted to hold the layout the
  /// pass needs), non-finite data or a non-finite bound evaluates every row
  /// instead. Parallel on `pool`; the result never depends on it.
  std::vector<size_t> DensestFittedRows(size_t k,
                                        ThreadPool* pool = nullptr) const;

  /// True iff LogDensity(point) < threshold — the density monitor's
  /// outlier predicate — decided from the fit-time per-node bounds
  /// whenever the bound interval clears the threshold, without descending
  /// to leaf kernel sums. Undecided queries (density within slack of the
  /// threshold, or the bounded node budget exhausted) fall back to
  /// evaluating LogDensity itself, so the returned bit is identical to
  /// computing the comparison exactly, for every query, thread count, and
  /// tree backend. Allocation-free (thread-local scratch).
  bool LogDensityBelow(const double* point, double threshold) const;

  /// LogDensityBelow over every row of `queries`: out[i] = 1 when row i's
  /// log-density is below `threshold`, else 0. Batched and parallel like
  /// EvaluateAllInto; bitwise identical for every worker count.
  void ClassifyBelowAllInto(const Matrix& queries, double threshold,
                            uint8_t* out, ThreadPool* pool = nullptr) const;

  /// The log-density LogDensity reports when a query's kernel sum is 0
  /// (every kernel underflowed): -745 + the log-normalizer. No query's
  /// log-density is below it, so a density floor at or below the guard
  /// can flag no row, and LogDensityBelow / ClassifyBelowAllInto answer
  /// "not below" for such a floor without a traversal.
  double LogDensityGuard() const { return -745.0 + log_norm_; }

  /// Per-dimension bandwidths in use.
  const std::vector<double>& bandwidth() const { return bandwidth_; }

  /// Number of training points.
  size_t train_size() const { return n_; }

  /// Approximate resident bytes of the fitted estimator (tree storage +
  /// bandwidths + classification bounds); the KdeCache evicts by the sum
  /// of these. Fit and LoadFittedFrom build identical state, so a loaded
  /// estimator reports the same bytes as the fit it was saved from.
  size_t ApproxMemoryBytes() const {
    return tree_.ApproxMemoryBytes() + ball_tree_.ApproxMemoryBytes() +
           (bandwidth_.size() + inv_bandwidth_.size() +
            scaled_bounds_.size()) *
               sizeof(double) +
           sizeof(*this);
  }

  /// Appends the complete fitted state (bandwidths, normalization, the
  /// flat tree) to `w`. LoadFittedFrom rebuilds an estimator whose every
  /// query is bitwise identical to this one's — in O(n), with no refit
  /// and no retained copy of the training matrix (the snapshot format's
  /// v2 density section). Fails FailedPrecondition on an unfitted
  /// estimator.
  Status SaveFittedTo(BinaryWriter* w) const;

  /// Rebuilds a fitted estimator from SaveFittedTo's payload; malformed
  /// payloads fail with Status::DataLoss.
  static Result<KernelDensity> LoadFittedFrom(BinaryReader* r);

 private:
  KernelDensity() = default;

  /// Kernel sum at `point` via the configured backend (allocation-free;
  /// traversal state lives in `scratch`).
  double KernelSum(const double* point, TraversalScratch* scratch) const;

  /// One LeaveOneOutLogDensityAll entry: the kernel sum at the fitted
  /// point `row` minus its own term (thread-local scratch).
  double LeaveOneOutLogDensity(const double* row) const;

  /// Slack the bound classification allows against the kernel-sum oracle.
  /// The relative term covers the oracle's near-node geometric-mean
  /// settling (error <= atol relative per settled node) plus float
  /// accumulation; the absolute term covers far-node settles (<= atol^2
  /// per point), dropped negligible nodes, and float error relative to the
  /// summed magnitudes. Depends on the fit only.
  struct ClassifySlack {
    double rel = 0.0;
    double abs = 0.0;
  };
  ClassifySlack Slack() const;

  /// The configured backend's ClassifyKernelSum at `point` (thread-local
  /// scratch): 1 when the oracle's kernel sum is provably >=
  /// `threshold_sum`, -1 when provably below it, 0 when undecided.
  int ClassifySum(const double* point, double threshold_sum,
                  const ClassifySlack& slack) const;

  /// Builds scaled_bounds_ for the configured backend; run eagerly at the
  /// end of Fit and LoadFittedFrom so fitted and loaded estimators carry
  /// identical state (including ApproxMemoryBytes).
  void BuildClassifyBounds();

  KdTree tree_;
  BallTree ball_tree_;
  KdeTreeBackend backend_ = KdeTreeBackend::kKdTree;
  std::vector<double> bandwidth_;
  std::vector<double> inv_bandwidth_;
  /// Bandwidth-scaled per-node geometry for LogDensityBelow (see the
  /// trees' BuildScaledBounds); derived from the tree + bandwidth, so it
  /// is rebuilt on load rather than serialized.
  std::vector<double> scaled_bounds_;
  double log_norm_ = 0.0;  // log of 1 / (n * prod_j h_j * (2*pi)^(d/2))
  double atol_ = 0.0;
  size_t n_ = 0;
  /// Set by Fit, not by LoadFittedFrom: the tree has Build's layout.
  bool built_by_fit_ = false;
};

namespace kde_internal {

/// The kernel-sum level at or above which LeaveOneOutLogDensityQuantile
/// clears a row against the pilot threshold `threshold` of a fit with
/// log-normalizer `log_norm`: 1 + max(2 exp(threshold - log_norm), 1e-9).
/// A row whose kernel sum reaches it keeps a leave-one-out sum of at least
/// 2 exp(threshold - log_norm) (up to one rounding of 1 + x), so its
/// leave-one-out log-density exceeds the threshold by about log 2 — far
/// more than the rounding of the exp, log and sum - 1.0 steps. The 1e-9
/// floor keeps a threshold at the guard, where the exp underflows, from
/// clearing a row whose leave-one-out sum is 0.
double LooClearanceSum(double threshold, double log_norm);

}  // namespace kde_internal

/// Ranks the rows of `data` by KDE density (self-evaluation) and returns
/// row indices in descending density order. This is the sort step of the
/// paper's Algorithm 3. Self-evaluation runs through the batched parallel
/// EvaluateAll on `pool` (global pool when null). With
/// options.use_fit_cache the fit resolves through GlobalKdeCache(), so
/// repeated rankings of identical data reuse one estimator.
Result<std::vector<size_t>> DensityRanking(const Matrix& data,
                                           const KdeOptions& options = {},
                                           ThreadPool* pool = nullptr);

/// The ranking step of DensityRanking over precomputed densities: indices
/// 0..n-1 in descending `density` order, ties in index order (a stable
/// sort). The density filter ranks its cells through this too.
std::vector<size_t> DescendingDensityOrder(const double* density, size_t n);

}  // namespace fairdrift

#endif  // FAIRDRIFT_KDE_KDE_H_
