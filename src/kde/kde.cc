#include "kde/kde.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "kde/kde_cache.h"
#include "util/binary_io.h"
#include "util/parallel.h"

namespace fairdrift {

namespace {
constexpr double kLogTwoPi = 1.8378770664093453;  // log(2*pi)

std::atomic<uint64_t> g_fit_count{0};
}  // namespace

Result<KernelDensity> KernelDensity::Fit(const Matrix& data,
                                         const KdeOptions& options) {
  if (data.rows() == 0 || data.cols() == 0) {
    return Status::InvalidArgument("KernelDensity::Fit: empty data");
  }
  KernelDensity kde;
  kde.backend_ = options.tree_backend;
  if (options.tree_backend == KdeTreeBackend::kKdTree) {
    Result<KdTree> tree = KdTree::Build(data, options.leaf_size);
    if (!tree.ok()) return tree.status();
    kde.tree_ = std::move(tree).value();
  } else {
    Result<BallTree> tree = BallTree::Build(data, options.leaf_size);
    if (!tree.ok()) return tree.status();
    kde.ball_tree_ = std::move(tree).value();
  }
  kde.bandwidth_ = SelectBandwidth(data, options.bandwidth_rule);
  kde.inv_bandwidth_.resize(kde.bandwidth_.size());
  for (size_t j = 0; j < kde.bandwidth_.size(); ++j) {
    kde.inv_bandwidth_[j] = 1.0 / kde.bandwidth_[j];
  }
  kde.n_ = data.rows();
  double log_norm = -std::log(static_cast<double>(kde.n_));
  for (double h : kde.bandwidth_) log_norm -= std::log(h);
  log_norm -= 0.5 * kLogTwoPi * static_cast<double>(data.cols());
  kde.log_norm_ = log_norm;
  kde.atol_ = options.approximation_atol;
  kde.built_by_fit_ = true;
  kde.BuildClassifyBounds();
  g_fit_count.fetch_add(1, std::memory_order_relaxed);
  return kde;
}

void KernelDensity::BuildClassifyBounds() {
  if (backend_ == KdeTreeBackend::kKdTree) {
    tree_.BuildScaledBounds(inv_bandwidth_, &scaled_bounds_);
  } else {
    ball_tree_.BuildScaledBounds(inv_bandwidth_, &scaled_bounds_);
  }
}

uint64_t KernelDensity::TotalFitCount() {
  return g_fit_count.load(std::memory_order_relaxed);
}

double KernelDensity::KernelSum(const double* point,
                                TraversalScratch* scratch) const {
  return backend_ == KdeTreeBackend::kKdTree
             ? tree_.GaussianKernelSum(point, inv_bandwidth_.data(), atol_,
                                       scratch)
             : ball_tree_.GaussianKernelSum(point, inv_bandwidth_.data(),
                                            atol_, scratch);
}

double KernelDensity::Evaluate(const std::vector<double>& point) const {
  return Evaluate(point.data());
}

double KernelDensity::Evaluate(const double* point) const {
  return KernelSum(point, &ThreadLocalTraversalScratch()) *
         std::exp(log_norm_);
}

double KernelDensity::LogDensity(const std::vector<double>& point) const {
  return LogDensity(point.data());
}

double KernelDensity::LogDensity(const double* point) const {
  double sum = KernelSum(point, &ThreadLocalTraversalScratch());
  if (sum <= 0.0) return LogDensityGuard();
  return std::log(sum) + log_norm_;
}

std::vector<double> KernelDensity::EvaluateAll(const Matrix& queries,
                                               ThreadPool* pool) const {
  std::vector<double> out(queries.rows());
  EvaluateAllInto(queries, out.data(), pool);
  return out;
}

void KernelDensity::EvaluateAllInto(const Matrix& queries, double* out,
                                    ThreadPool* pool) const {
  double norm = std::exp(log_norm_);
  // RowPtr + per-thread scratch: zero heap allocations per query.
  ParallelForEach(0, queries.rows(), pool, [&](size_t i) {
    out[i] =
        KernelSum(queries.RowPtr(i), &ThreadLocalTraversalScratch()) * norm;
  });
}

std::vector<double> KernelDensity::LogDensityAll(const Matrix& queries,
                                                 ThreadPool* pool) const {
  std::vector<double> out(queries.rows());
  LogDensityAllInto(queries, out.data(), pool);
  return out;
}

void KernelDensity::LogDensityAllInto(const Matrix& queries, double* out,
                                      ThreadPool* pool) const {
  ParallelForEach(0, queries.rows(), pool,
                  [&](size_t i) { out[i] = LogDensity(queries.RowPtr(i)); });
}

double KernelDensity::LeaveOneOutLogDensity(const double* row) const {
  double sum = KernelSum(row, &ThreadLocalTraversalScratch());
  sum -= 1.0;  // the row's own kernel term: exp(0) for a fitted point
  return sum <= 0.0 ? LogDensityGuard() : std::log(sum) + log_norm_;
}

std::vector<double> KernelDensity::LeaveOneOutLogDensityAll(
    const Matrix& queries, ThreadPool* pool) const {
  std::vector<double> out(queries.rows());
  ParallelForEach(0, queries.rows(), pool, [&](size_t i) {
    out[i] = LeaveOneOutLogDensity(queries.RowPtr(i));
  });
  return out;
}

namespace kde_internal {

double LooClearanceSum(double threshold, double log_norm) {
  return 1.0 + std::max(2.0 * std::exp(threshold - log_norm), 1e-9);
}

}  // namespace kde_internal

Result<double> KernelDensity::LeaveOneOutLogDensityQuantile(
    const Matrix& queries, double q, ThreadPool* pool) const {
  const size_t n = queries.rows();
  if (n == 0 || queries.cols() == 0) {
    return Status::InvalidArgument(
        "LeaveOneOutLogDensityQuantile: empty query matrix");
  }
  if (queries.cols() != bandwidth_.size()) {
    return Status::InvalidArgument(
        "LeaveOneOutLogDensityQuantile: query width differs from the fit's");
  }
  if (!(q >= 0.0 && q <= 1.0)) {
    return Status::InvalidArgument(
        "LeaveOneOutLogDensityQuantile: q must be in [0, 1]");
  }
  const size_t rank = static_cast<size_t>(q * static_cast<double>(n - 1));
  // logd[i] is row i's exact value once exact[i] is set. The reference is
  // std::sort over the full vector in row order, so the fallback rebuilds
  // exactly that vector and sorts it the same way.
  std::vector<double> logd(n);
  std::vector<uint8_t> exact(n, 0);
  auto sort_all = [&]() -> double {
    ParallelForEach(0, n, pool, [&](size_t i) {
      if (!exact[i]) logd[i] = LeaveOneOutLogDensity(queries.RowPtr(i));
    });
    std::sort(logd.begin(), logd.end());
    return logd[rank];
  };
  const double pilot_q = 2.0 * q + 0.01;
  if (pilot_q >= 1.0) return sort_all();

  constexpr size_t kPilotStride = 16;
  std::vector<double> pilot((n + kPilotStride - 1) / kPilotStride);
  ParallelForEach(0, pilot.size(), pool, [&](size_t k) {
    const size_t i = k * kPilotStride;
    logd[i] = LeaveOneOutLogDensity(queries.RowPtr(i));
    exact[i] = 1;
    pilot[k] = logd[i];
  });
  for (double v : pilot) {
    if (std::isnan(v)) return sort_all();
  }
  std::sort(pilot.begin(), pilot.end());
  const double threshold = pilot[static_cast<size_t>(
      pilot_q * static_cast<double>(pilot.size() - 1))];

  // A row is cleared when its kernel sum provably reaches the clearance
  // level: its value then exceeds the threshold, so it cannot be at or
  // below a rank-th candidate that is itself <= the threshold.
  const double clear_sum = kde_internal::LooClearanceSum(threshold, log_norm_);
  const ClassifySlack slack = Slack();
  ParallelForEach(0, n, pool, [&](size_t i) {
    if (exact[i]) return;  // pilot row
    const double* row = queries.RowPtr(i);
    if (ClassifySum(row, clear_sum, slack) > 0) return;
    logd[i] = LeaveOneOutLogDensity(row);
    exact[i] = 1;
  });
  std::vector<double> candidates;
  for (size_t i = 0; i < n; ++i) {
    if (!exact[i]) continue;
    if (std::isnan(logd[i])) return sort_all();
    candidates.push_back(logd[i]);
  }
  if (rank < candidates.size()) {
    std::sort(candidates.begin(), candidates.end());
    if (candidates[rank] <= threshold) return candidates[rank];
  }
  return sort_all();
}

std::vector<size_t> KernelDensity::DensestFittedRows(size_t k,
                                                     ThreadPool* pool) const {
  const size_t n = n_;
  std::vector<size_t> rows;
  if (k >= n) {
    rows.resize(n);
    std::iota(rows.begin(), rows.end(), size_t{0});
    return rows;
  }
  if (k == 0) return rows;
  const bool kd = backend_ == KdeTreeBackend::kKdTree;
  const Matrix& points = kd ? tree_.points() : ball_tree_.points();
  const std::vector<size_t>& order = kd ? tree_.order() : ball_tree_.order();

  // The reference: every fitted row's density, ranked.
  auto rank_all = [&]() {
    std::vector<double> at_tree_row(n);
    ParallelForEach(0, n, pool, [&](size_t t) {
      at_tree_row[t] = Evaluate(points.RowPtr(t));
    });
    std::vector<double> density(n);
    for (size_t t = 0; t < n; ++t) density[order[t]] = at_tree_row[t];
    std::vector<size_t> top = DescendingDensityOrder(density.data(), n);
    top.resize(k);
    std::sort(top.begin(), top.end());
    return top;
  };
  const double a = atol_ > 0.0 ? atol_ : 0.0;  // as Slack() reads atol_
  const double norm = std::exp(log_norm_);
  if (!kd || !built_by_fit_ || !std::isfinite(a) || !(norm > 0.0) ||
      !std::isfinite(norm)) {
    return rank_all();
  }
  std::vector<double> lo;  // the pass's sum S_t, then the lower bound
  std::vector<double> hi;  // its skipped charge E_t, then the upper bound
  if (!tree_.SymmetricKernelSums(inv_bandwidth_.data(), a, pool, &lo, &hi)) {
    return rank_all();
  }

  // The bound. Let T_t be the exact kernel sum of fitted point t over all
  // n points and R_t the kernel sum Evaluate computes (its density is
  // R_t * norm). With a = the estimator's atol (0 when <= 0 or NaN):
  //  - The reference settles a near node (kmax/kmin <= e^a) at
  //    count * sqrt(kmin * kmax), within e^(+-a/2) of each of its points'
  //    kernels; a far node (kmax <= a) at a value in [0, count * a], as
  //    are its points' kernels; leaves exactly. Exact mode (a = 0) drops
  //    only nodes whose whole mass is below 1e-300, at most 2n of them,
  //    and NegExp flushes kernels below e^-708 to 0. So
  //      e^(-a/2) T_t - n a - n 1e-299 <= R_t <= e^(a/2) T_t + n a.
  //  - The pass skips a node pair only when its largest kernel is <= a,
  //    the reference's own far rule, and charges the skipped mass to
  //    E_t, so S_t <= T_t <= S_t + E_t.
  //  - Rounding: NegExp errs below 1e-14 relative, distances by a few
  //    ulps, and each sum adds at most n terms, all nonnegative; the
  //    relative margin m = 1e-9 + 4 n eps covers all of it.
  // Hence R_t lies in [lo_t, hi_t] below, their own rounding included.
  const double nd = static_cast<double>(n);
  const double margin =
      1e-9 + 4.0 * nd * std::numeric_limits<double>::epsilon();
  const double spread = std::exp(0.5 * a);
  const double slack = nd * a + nd * 1e-299;
  for (size_t t = 0; t < n; ++t) {
    const double s = lo[t];
    hi[t] = ((s + hi[t]) * spread + slack) * (1.0 + margin);
    lo[t] = s / spread * (1.0 - margin) - slack * (1.0 + margin);
    if (!std::isfinite(lo[t]) || !std::isfinite(hi[t])) return rank_all();
  }

  // The decision. A row is in when its lower bound beats the (k+1)-th
  // largest upper bound: at most k rows (itself included) have a larger
  // upper bound, and every other row is below it. A row is out when its
  // upper bound is below the k-th largest lower bound: at least k rows
  // are above it. Both comparisons carry the relative margin, and the
  // winning side's density must be at least 1e-290: then the two
  // densities differ by far more than the rounding of sum * norm, which
  // could otherwise tie two nearly equal sums (and a tie goes by index).
  std::vector<double> scratch(hi);
  std::nth_element(scratch.begin(),
                   scratch.begin() + static_cast<ptrdiff_t>(k), scratch.end(),
                   std::greater<double>());
  const double hi_next = scratch[k];  // the (k+1)-th largest upper bound
  scratch = lo;
  std::nth_element(scratch.begin(),
                   scratch.begin() + static_cast<ptrdiff_t>(k - 1),
                   scratch.end(), std::greater<double>());
  const double lo_kth = scratch[k - 1];  // the k-th largest lower bound
  std::vector<double>().swap(scratch);
  constexpr double kLeastDensity = 1e-290;
  const bool can_exclude = lo_kth * norm >= kLeastDensity;
  std::vector<size_t> undecided;  // tree rows
  for (size_t t = 0; t < n; ++t) {
    if (lo[t] > hi_next * (1.0 + margin) && lo[t] * norm >= kLeastDensity) {
      rows.push_back(order[t]);
    } else if (!(can_exclude && hi[t] * (1.0 + margin) < lo_kth)) {
      undecided.push_back(t);
    }
  }
  // The proof leaves at least k - |in| undecided rows; a shortfall would
  // mean a broken bound, and the reference answers instead.
  if (rows.size() > k || k - rows.size() > undecided.size()) return rank_all();

  // The undecided rows, in row order, fill the places left by (density
  // descending, row index) — the reference order restricted to them.
  std::sort(undecided.begin(), undecided.end(),
            [&](size_t x, size_t y) { return order[x] < order[y]; });
  std::vector<double> density(undecided.size());
  ParallelForEach(0, undecided.size(), pool, [&](size_t i) {
    density[i] = Evaluate(points.RowPtr(undecided[i]));
  });
  const std::vector<size_t> ranked =
      DescendingDensityOrder(density.data(), density.size());
  for (size_t i = 0, left = k - rows.size(); i < left; ++i) {
    rows.push_back(order[undecided[ranked[i]]]);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

KernelDensity::ClassifySlack KernelDensity::Slack() const {
  ClassifySlack slack;
  slack.rel = (atol_ > 0.0 ? atol_ : 0.0) + 1e-9;
  slack.abs =
      static_cast<double>(n_) * ((atol_ > 0.0 ? atol_ * atol_ : 0.0) + 1e-12);
  return slack;
}

int KernelDensity::ClassifySum(const double* point, double threshold_sum,
                               const ClassifySlack& slack) const {
  TraversalScratch* scratch = &ThreadLocalTraversalScratch();
  return backend_ == KdeTreeBackend::kKdTree
             ? tree_.ClassifyKernelSum(point, inv_bandwidth_.data(),
                                       scaled_bounds_, threshold_sum,
                                       slack.rel, slack.abs, scratch)
             : ball_tree_.ClassifyKernelSum(point, inv_bandwidth_.data(),
                                            scaled_bounds_, threshold_sum,
                                            slack.rel, slack.abs, scratch);
}

bool KernelDensity::LogDensityBelow(const double* point,
                                    double threshold) const {
  // A threshold at or below the guard has no query below it, so the
  // answer is "not below" without a traversal. Proof: when the kernel sum
  // is <= 0, LogDensity returns the guard itself, and guard < threshold is
  // false; otherwise the sum is a positive double, its log is at least
  // log(4.9e-324) = -744.44 > -745, and since rounded addition is
  // monotone, log(sum) + log_norm_ >= -745 + log_norm_ = guard >=
  // threshold; a NaN log-density compares false too. Calibrated floors
  // sit exactly on the guard whenever the floor's quantile of training
  // rows has a leave-one-out sum of 0, and exp(threshold - log_norm_)
  // then underflows the range the bounded path below accepts, so without
  // this exit every query would pay the full kernel sum.
  if (threshold <= LogDensityGuard()) return false;
  // Compare in kernel-sum space: LogDensity < threshold iff
  // KernelSum < exp(threshold - log_norm_) (log is monotone; the sum <= 0
  // floor case is only reachable when the converted threshold underflows,
  // which the guard below routes to the fallback).
  double threshold_sum = std::exp(threshold - log_norm_);
  if (threshold_sum > 1e-280 && threshold_sum < 1e280) {
    int c = ClassifySum(point, threshold_sum, Slack());
    if (c != 0) return c < 0;
  }
  return LogDensity(point) < threshold;
}

void KernelDensity::ClassifyBelowAllInto(const Matrix& queries,
                                         double threshold, uint8_t* out,
                                         ThreadPool* pool) const {
  // Same decision procedure as LogDensityBelow, with the threshold
  // conversion and slack terms hoisted out of the per-row loop — they
  // depend only on the fit and the threshold, not on the query.
  if (threshold <= LogDensityGuard()) {  // see LogDensityBelow
    std::fill(out, out + queries.rows(), uint8_t{0});
    return;
  }
  double threshold_sum = std::exp(threshold - log_norm_);
  bool in_range = threshold_sum > 1e-280 && threshold_sum < 1e280;
  const ClassifySlack slack = Slack();
  ParallelForEach(0, queries.rows(), pool, [&](size_t i) {
    const double* q = queries.RowPtr(i);
    if (in_range) {
      int c = ClassifySum(q, threshold_sum, slack);
      if (c != 0) {
        out[i] = c < 0 ? 1 : 0;
        return;
      }
    }
    out[i] = LogDensity(q) < threshold ? 1 : 0;
  });
}

Status KernelDensity::SaveFittedTo(BinaryWriter* w) const {
  if (n_ == 0) {
    return Status::FailedPrecondition("KernelDensity: not fitted");
  }
  w->WriteU8(backend_ == KdeTreeBackend::kBallTree ? 1 : 0);
  w->WriteDoubleVector(bandwidth_);
  w->WriteDoubleVector(inv_bandwidth_);
  w->WriteDouble(log_norm_);
  w->WriteDouble(atol_);
  w->WriteU64(static_cast<uint64_t>(n_));
  if (backend_ == KdeTreeBackend::kKdTree) {
    tree_.SerializeTo(w);
  } else {
    ball_tree_.SerializeTo(w);
  }
  return Status::OK();
}

Result<KernelDensity> KernelDensity::LoadFittedFrom(BinaryReader* r) {
  KernelDensity kde;
  Result<uint8_t> backend = r->ReadU8();
  if (!backend.ok()) return backend.status();
  kde.backend_ = backend.value() != 0 ? KdeTreeBackend::kBallTree
                                      : KdeTreeBackend::kKdTree;
  Result<std::vector<double>> bandwidth = r->ReadDoubleVector();
  if (!bandwidth.ok()) return bandwidth.status();
  kde.bandwidth_ = std::move(bandwidth).value();
  Result<std::vector<double>> inv = r->ReadDoubleVector();
  if (!inv.ok()) return inv.status();
  kde.inv_bandwidth_ = std::move(inv).value();
  Result<double> log_norm = r->ReadDouble();
  if (!log_norm.ok()) return log_norm.status();
  kde.log_norm_ = log_norm.value();
  Result<double> atol = r->ReadDouble();
  if (!atol.ok()) return atol.status();
  kde.atol_ = atol.value();
  Result<uint64_t> n = r->ReadU64();
  if (!n.ok()) return n.status();
  kde.n_ = static_cast<size_t>(n.value());
  size_t tree_size = 0;
  size_t tree_dim = 0;
  if (kde.backend_ == KdeTreeBackend::kKdTree) {
    Result<KdTree> tree = KdTree::DeserializeFrom(r);
    if (!tree.ok()) return tree.status();
    kde.tree_ = std::move(tree).value();
    tree_size = kde.tree_.size();
    tree_dim = kde.tree_.dim();
  } else {
    Result<BallTree> tree = BallTree::DeserializeFrom(r);
    if (!tree.ok()) return tree.status();
    kde.ball_tree_ = std::move(tree).value();
    tree_size = kde.ball_tree_.size();
    tree_dim = kde.ball_tree_.dim();
  }
  if (kde.n_ != tree_size || kde.bandwidth_.size() != tree_dim ||
      kde.inv_bandwidth_.size() != tree_dim) {
    return Status::DataLoss(
        "KernelDensity payload disagrees with its tree's shape");
  }
  // The classification bounds are derived state: rebuilding them here
  // (instead of serializing them) keeps the v2 density payload unchanged
  // while giving loaded estimators the same LogDensityBelow fast path —
  // and the same ApproxMemoryBytes — as the fit they were saved from.
  kde.BuildClassifyBounds();
  return kde;
}

Result<std::vector<size_t>> DensityRanking(const Matrix& data,
                                           const KdeOptions& options,
                                           ThreadPool* pool) {
  Result<std::shared_ptr<const KernelDensity>> kde =
      FitThroughCache(data, options);
  if (!kde.ok()) return kde.status();
  std::vector<double> density = kde.value()->EvaluateAll(data, pool);
  return DescendingDensityOrder(density.data(), density.size());
}

std::vector<size_t> DescendingDensityOrder(const double* density, size_t n) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return density[a] > density[b];
  });
  return order;
}

}  // namespace fairdrift
