#include "kde/kdtree.h"

#include "kde/leaf_scan.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "kde/tree_io.h"
#include "util/binary_io.h"

namespace fairdrift {

namespace {

/// Kernel-sum bounds of one node from its bandwidth-scaled box: every one
/// of the node's `count` points has kernel value in
/// [exp(-0.5 * dmax2), exp(-0.5 * dmin2)], with dmin2/dmax2 the squared
/// scaled distances to the nearest box point and the farthest box corner.
inline void KdNodeBounds(const double* scaled_box, size_t dim,
                         const double* scaled_query, double count, double* l,
                         double* u) {
  const double* lo = scaled_box;
  const double* hi = scaled_box + dim;
  double amin = 0.0;
  double amax = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    double below = lo[j] - scaled_query[j];
    double above = scaled_query[j] - hi[j];
    double dn = std::max(std::max(below, above), 0.0);
    double dx = std::max(-below, -above);
    amin += dn * dn;
    amax += dx * dx;
  }
  double kmin, kmax;
  NegExpPair(-0.5 * amax, -0.5 * amin, &kmin, &kmax);
  *l = count * kmin;
  *u = count * kmax;
}

}  // namespace

Result<KdTree> KdTree::Build(const Matrix& points, size_t leaf_size) {
  if (points.rows() == 0 || points.cols() == 0) {
    return Status::InvalidArgument("KdTree::Build: empty point set");
  }
  KdTree tree;
  tree.dim_ = points.cols();
  tree.order_.resize(points.rows());
  std::iota(tree.order_.begin(), tree.order_.end(), size_t{0});
  size_t node_hint = 2 * points.rows() / std::max<size_t>(leaf_size, 1) + 2;
  tree.node_begin_.reserve(node_hint);
  tree.node_end_.reserve(node_hint);
  tree.node_left_.reserve(node_hint);
  tree.node_right_.reserve(node_hint);
  tree.box_lo_.reserve(node_hint * tree.dim_);
  tree.box_hi_.reserve(node_hint * tree.dim_);
  tree.BuildNode(points, 0, points.rows(), std::max<size_t>(leaf_size, 1));
  tree.root_box_.lo.assign(tree.box_lo_.begin(), tree.box_lo_.begin() + tree.dim_);
  tree.root_box_.hi.assign(tree.box_hi_.begin(), tree.box_hi_.begin() + tree.dim_);
  // Store the points permuted into node order so leaf scans (the KDE's
  // inner loop) sweep contiguous memory; order_ keeps the map back to the
  // caller's row ids. This is the only copy the build makes.
  tree.points_ = Matrix(points.rows(), points.cols());
  for (size_t i = 0; i < points.rows(); ++i) {
    const double* src = points.RowPtr(tree.order_[i]);
    std::copy(src, src + points.cols(), tree.points_.RowPtr(i));
  }
  return tree;
}

int KdTree::BuildNode(const Matrix& pts, size_t begin, size_t end,
                      size_t leaf_size) {
  int node_id = static_cast<int>(node_begin_.size());
  size_t d = pts.cols();
  node_begin_.push_back(begin);
  node_end_.push_back(end);
  node_left_.push_back(-1);
  node_right_.push_back(-1);
  size_t box_at = box_lo_.size();
  box_lo_.insert(box_lo_.end(), d, std::numeric_limits<double>::infinity());
  box_hi_.insert(box_hi_.end(), d, -std::numeric_limits<double>::infinity());
  for (size_t i = begin; i < end; ++i) {
    const double* row = pts.RowPtr(order_[i]);
    for (size_t j = 0; j < d; ++j) {
      box_lo_[box_at + j] = std::min(box_lo_[box_at + j], row[j]);
      box_hi_[box_at + j] = std::max(box_hi_[box_at + j], row[j]);
    }
  }

  if (end - begin <= leaf_size) return node_id;

  // Split at the median of the widest dimension.
  size_t split_dim = 0;
  double best_width = -1.0;
  for (size_t j = 0; j < d; ++j) {
    double width = box_hi_[box_at + j] - box_lo_[box_at + j];
    if (width > best_width) {
      best_width = width;
      split_dim = j;
    }
  }
  if (best_width <= 0.0) return node_id;  // All points identical: stay a leaf.

  size_t mid = begin + (end - begin) / 2;
  std::nth_element(order_.begin() + static_cast<ptrdiff_t>(begin),
                   order_.begin() + static_cast<ptrdiff_t>(mid),
                   order_.begin() + static_cast<ptrdiff_t>(end),
                   [&](size_t a, size_t b) {
                     return pts.At(a, split_dim) < pts.At(b, split_dim);
                   });

  int left = BuildNode(pts, begin, mid, leaf_size);
  int right = BuildNode(pts, mid, end, leaf_size);
  node_left_[static_cast<size_t>(node_id)] = left;
  node_right_[static_cast<size_t>(node_id)] = right;
  return node_id;
}

double KdTree::MinScaledSqDist(int32_t id, const double* query,
                               const double* inv_bandwidth) const {
  const double* lo = box_lo_.data() + static_cast<size_t>(id) * dim_;
  const double* hi = box_hi_.data() + static_cast<size_t>(id) * dim_;
  double acc = 0.0;
  for (size_t j = 0; j < dim_; ++j) {
    // max(lo - x, x - hi, 0): branch-free (compiles to two maxsd).
    double d = std::max(std::max(lo[j] - query[j], query[j] - hi[j]), 0.0) *
               inv_bandwidth[j];
    acc += d * d;
  }
  return acc;
}

void KdTree::MinMaxScaledSqDist(int32_t id, const double* query,
                                const double* inv_bandwidth, double* dmin2,
                                double* dmax2) const {
  const double* lo = box_lo_.data() + static_cast<size_t>(id) * dim_;
  const double* hi = box_hi_.data() + static_cast<size_t>(id) * dim_;
  double amin = 0.0;
  double amax = 0.0;
  for (size_t j = 0; j < dim_; ++j) {
    double below = lo[j] - query[j];
    double above = query[j] - hi[j];
    // Nearest box point: max(below, above, 0). Farthest corner: the wider
    // of (x - lo) and (hi - x) — which equals max(|x-lo|, |x-hi|) whether
    // x is inside or outside the box. Both are branch-free.
    double dn = std::max(std::max(below, above), 0.0) * inv_bandwidth[j];
    double dx = std::max(-below, -above) * inv_bandwidth[j];
    amin += dn * dn;
    amax += dx * dx;
  }
  *dmin2 = amin;
  *dmax2 = amax;
}

double KdTree::MinSqDist(int32_t id, const double* query) const {
  const double* lo = box_lo_.data() + static_cast<size_t>(id) * dim_;
  const double* hi = box_hi_.data() + static_cast<size_t>(id) * dim_;
  double acc = 0.0;
  for (size_t j = 0; j < dim_; ++j) {
    double d = 0.0;
    if (query[j] < lo[j]) {
      d = lo[j] - query[j];
    } else if (query[j] > hi[j]) {
      d = query[j] - hi[j];
    }
    acc += d * d;
  }
  return acc;
}

std::vector<size_t> KdTree::NearestNeighbors(const std::vector<double>& query,
                                             size_t k) const {
  assert(query.size() == dim());
  std::vector<size_t> out;
  NearestNeighbors(query.data(), k, &ThreadLocalTraversalScratch(), &out);
  return out;
}

void KdTree::NearestNeighbors(const double* query, size_t k,
                              TraversalScratch* scratch,
                              std::vector<size_t>* out) const {
  out->clear();
  k = std::min(k, size());
  if (k == 0) return;
  // Max-heap of (distance^2, index), capped at k. Iterative DFS visiting
  // the nearer child first, exactly like the old recursion: the far child
  // sits on the stack and is bound-checked against the heap state at its
  // pop, which is the state after the near subtree completed.
  auto& heap = scratch->heap;
  auto& stack = scratch->stack;
  heap.clear();
  stack.clear();
  stack.push_back(0);
  while (!stack.empty()) {
    int32_t id = stack.back();
    stack.pop_back();
    double bound = MinSqDist(id, query);
    if (heap.size() == k && bound >= heap.front().first) continue;
    int32_t left = node_left_[static_cast<size_t>(id)];
    if (left < 0) {
      size_t begin = node_begin_[static_cast<size_t>(id)];
      size_t end = node_end_[static_cast<size_t>(id)];
      for (size_t i = begin; i < end; ++i) {
        size_t idx = order_[i];
        const double* row = points_.RowPtr(i);
        double d2 = 0.0;
        for (size_t j = 0; j < dim_; ++j) {
          double d = row[j] - query[j];
          d2 += d * d;
        }
        if (heap.size() < k) {
          heap.emplace_back(d2, idx);
          std::push_heap(heap.begin(), heap.end());
        } else if (d2 < heap.front().first) {
          std::pop_heap(heap.begin(), heap.end());
          heap.back() = {d2, idx};
          std::push_heap(heap.begin(), heap.end());
        }
      }
      continue;
    }
    int32_t right = node_right_[static_cast<size_t>(id)];
    double dl = MinSqDist(left, query);
    double dr = MinSqDist(right, query);
    if (dl <= dr) {
      stack.push_back(right);
      stack.push_back(left);
    } else {
      stack.push_back(left);
      stack.push_back(right);
    }
  }
  std::sort_heap(heap.begin(), heap.end());
  out->reserve(heap.size());
  for (const auto& [dist, idx] : heap) out->push_back(idx);
}

double KdTree::GaussianKernelSum(const std::vector<double>& query,
                                 const std::vector<double>& inv_bandwidth,
                                 double atol) const {
  assert(query.size() == dim());
  assert(inv_bandwidth.size() == dim());
  return GaussianKernelSum(query.data(), inv_bandwidth.data(), atol,
                           &ThreadLocalTraversalScratch());
}

double KdTree::LeafKernelSum(int32_t id, const double* query,
                             const double* inv_bandwidth) const {
  return LeafPairwiseKernelSum(points_, node_begin_[static_cast<size_t>(id)],
                               node_end_[static_cast<size_t>(id)], dim_,
                               query, inv_bandwidth);
}

double KdTree::GaussianKernelSum(const double* query,
                                 const double* inv_bandwidth, double atol,
                                 TraversalScratch* scratch) const {
  // Iterative post-order stack machine emulating the reference recursion.
  // A non-negative stack entry means "evaluate this node"; ~id is the
  // combine marker pushed under an internal node's children. When it pops,
  // both child sums are on the value stack and are added in the same
  // left + right association the recursion used, keeping the result
  // bitwise identical for every pruning pattern.
  //
  // The atol > 0 mode decides approximation from squared distances alone
  // (see header): descended interior nodes cost zero exp() calls, which is
  // the bulk of the flat traversal's speedup over the PR-1 path.
  auto& stack = scratch->stack;
  auto& values = scratch->values;
  stack.clear();
  values.clear();
  stack.push_back(0);
  const bool approximate = atol > 0.0;
  // Beyond far2 the max kernel value is below atol, so the whole node may
  // be approximated regardless of its spread.
  const double far2 = approximate ? -2.0 * std::log(atol) : 0.0;
  while (!stack.empty()) {
    int32_t id = stack.back();
    stack.pop_back();
    if (id < 0) {
      double right = values.back();
      values.pop_back();
      double left = values.back();
      values.pop_back();
      values.push_back(left + right);
      continue;
    }
    size_t begin = node_begin_[static_cast<size_t>(id)];
    size_t end = node_end_[static_cast<size_t>(id)];
    double count = static_cast<double>(end - begin);

    if (approximate) {
      double dmin2, dmax2;
      MinMaxScaledSqDist(id, query, inv_bandwidth, &dmin2, &dmax2);
      // spread = kmax - kmin = kmax (1 - e^{-(dmax2-dmin2)/2})
      //        <= min((dmax2 - dmin2) / 2, kmax),
      // so either test proves spread <= atol without evaluating a kernel.
      // The approximate value, count * sqrt(kmax * kmin) (the geometric
      // mean, one exp), lies inside [kmin, kmax] and therefore errs at
      // most `spread` <= atol per point; far nodes underflow to exactly 0.
      if (dmax2 - dmin2 <= 2.0 * atol || dmin2 >= far2) {
        values.push_back(count * std::exp(-0.25 * (dmin2 + dmax2)));
        continue;
      }
    } else {
      double dmin2 = MinScaledSqDist(id, query, inv_bandwidth);
      double kmax = std::exp(-0.5 * dmin2);
      if (kmax * count < 1e-300) {  // Entire node is negligible.
        values.push_back(0.0);
        continue;
      }
    }
    int32_t left = node_left_[static_cast<size_t>(id)];
    if (left < 0) {
      values.push_back(LeafKernelSum(id, query, inv_bandwidth));
      continue;
    }
    stack.push_back(~id);  // combine after both children
    stack.push_back(node_right_[static_cast<size_t>(id)]);
    stack.push_back(left);
  }
  return values.back();
}

double KdTree::GaussianKernelSumRecursive(
    const std::vector<double>& query, const std::vector<double>& inv_bandwidth,
    double atol) const {
  assert(query.size() == dim());
  assert(inv_bandwidth.size() == dim());
  return KernelSumRecurse(0, query.data(), inv_bandwidth.data(), atol);
}

double KdTree::KernelSumRecurse(int32_t node_id, const double* query,
                                const double* inv_bandwidth,
                                double atol) const {
  size_t begin = node_begin_[static_cast<size_t>(node_id)];
  size_t end = node_end_[static_cast<size_t>(node_id)];
  double count = static_cast<double>(end - begin);

  if (atol > 0.0) {
    double dmin2, dmax2;
    MinMaxScaledSqDist(node_id, query, inv_bandwidth, &dmin2, &dmax2);
    double far2 = -2.0 * std::log(atol);
    if (dmax2 - dmin2 <= 2.0 * atol || dmin2 >= far2) {
      return count * std::exp(-0.25 * (dmin2 + dmax2));
    }
  } else {
    double dmin2 = MinScaledSqDist(node_id, query, inv_bandwidth);
    double kmax = std::exp(-0.5 * dmin2);
    if (kmax * count < 1e-300) return 0.0;  // Entire node is negligible.
  }
  int32_t left = node_left_[static_cast<size_t>(node_id)];
  if (left < 0) return LeafKernelSum(node_id, query, inv_bandwidth);
  return KernelSumRecurse(left, query, inv_bandwidth, atol) +
         KernelSumRecurse(node_right_[static_cast<size_t>(node_id)], query,
                          inv_bandwidth, atol);
}

void KdTree::BuildScaledBounds(const std::vector<double>& inv_bandwidth,
                               std::vector<double>* out) const {
  assert(inv_bandwidth.size() == dim_);
  size_t nodes = node_begin_.size();
  out->resize(2 * nodes * dim_);
  for (size_t i = 0; i < nodes; ++i) {
    const double* lo = box_lo_.data() + i * dim_;
    const double* hi = box_hi_.data() + i * dim_;
    double* dst = out->data() + 2 * i * dim_;
    for (size_t j = 0; j < dim_; ++j) {
      dst[j] = lo[j] * inv_bandwidth[j];
      dst[dim_ + j] = hi[j] * inv_bandwidth[j];
    }
  }
}

int KdTree::ClassifyKernelSum(const double* query, const double* inv_bandwidth,
                              const std::vector<double>& scaled_bounds,
                              double threshold, double eps_rel, double eps_abs,
                              TraversalScratch* scratch) const {
  // Interval refinement. [total_lo, total_hi] brackets every value the
  // kernel-sum oracle can return for this query: leaf contributions settle
  // exactly (the same LeafKernelSum the oracle calls), and an unrefined
  // interior node contributes [count * kmin, count * kmax], which contains
  // both its true subtree sum and the atol-mode geometric-mean settle
  // (count * sqrt(kmin * kmax)). Each refinement step replaces one
  // frontier node's interval with its children's (or its exact leaf sum),
  // so the interval narrows monotonically; the query is classified the
  // moment the slack-inflated interval clears the threshold — for clearly
  // dense or clearly empty neighbourhoods that happens a few interior
  // levels deep, with zero leaf scans. The slacks absorb float
  // accumulation error plus the oracle's atol settling error (the caller
  // sizes them; see KernelDensity::Slack).
  assert(scaled_bounds.size() == 2 * node_begin_.size() * dim_);
  auto& stack = scratch->stack;
  auto& values = scratch->values;
  auto& qs = scratch->scaled_query;
  stack.clear();
  values.clear();
  qs.resize(dim_);
  for (size_t j = 0; j < dim_; ++j) qs[j] = query[j] * inv_bandwidth[j];

  // Leaf-first probe: every node contributes nonnegatively to the
  // oracle's sum, so when the query's own leaf alone carries enough exact
  // kernel mass to clear the slack-inflated threshold, "not below" is
  // provable from one split-guided walk plus one leaf scan — no interval
  // bookkeeping at all. Against a calibrated (low-quantile) floor this is
  // the overwhelmingly common case for in-distribution traffic, and it
  // reuses the identical LeafKernelSum the oracle computes, so the slack
  // terms cover the same settle/accumulation error they cover below. A
  // failed probe costs one extra leaf scan on the way into the interval
  // refinement, which near-threshold and outlying queries pay anyway.
  {
    int32_t id = 0;
    while (node_left_[static_cast<size_t>(id)] >= 0) {
      int32_t l = node_left_[static_cast<size_t>(id)];
      int32_t r = node_right_[static_cast<size_t>(id)];
      double near_l = 0.0;
      double near_r = 0.0;
      const double* box_l =
          scaled_bounds.data() + 2 * static_cast<size_t>(l) * dim_;
      const double* box_r =
          scaled_bounds.data() + 2 * static_cast<size_t>(r) * dim_;
      for (size_t j = 0; j < dim_; ++j) {
        double dl = std::max(
            std::max(box_l[j] - qs[j], qs[j] - box_l[dim_ + j]), 0.0);
        double dr = std::max(
            std::max(box_r[j] - qs[j], qs[j] - box_r[dim_ + j]), 0.0);
        near_l += dl * dl;
        near_r += dr * dr;
      }
      id = near_l <= near_r ? l : r;
    }
    double s = LeafKernelSum(id, query, inv_bandwidth);
    if (s * (1.0 - eps_rel) - eps_abs >= threshold) return 1;
  }

  double root_count = static_cast<double>(node_end_[0] - node_begin_[0]);
  double total_lo, total_hi;
  KdNodeBounds(scaled_bounds.data(), dim_, qs.data(), root_count, &total_lo,
               &total_hi);
  stack.push_back(0);
  values.push_back(total_lo);
  values.push_back(total_hi);
  int budget = kClassifyNodeBudget;
  while (true) {
    if (total_hi * (1.0 + eps_rel) + eps_abs < threshold) return -1;
    if (total_lo * (1.0 - eps_rel) - eps_abs >= threshold) return 1;
    if (stack.empty() || --budget < 0) return 0;
    int32_t id = stack.back();
    stack.pop_back();
    double node_hi = values.back();
    values.pop_back();
    double node_lo = values.back();
    values.pop_back();
    int32_t left = node_left_[static_cast<size_t>(id)];
    if (left < 0) {
      double s = LeafKernelSum(id, query, inv_bandwidth);
      total_lo += s - node_lo;
      total_hi += s - node_hi;
      continue;
    }
    int32_t right = node_right_[static_cast<size_t>(id)];
    double l1, u1, l2, u2;
    KdNodeBounds(scaled_bounds.data() + 2 * static_cast<size_t>(left) * dim_,
                 dim_, qs.data(),
                 static_cast<double>(node_end_[static_cast<size_t>(left)] -
                                     node_begin_[static_cast<size_t>(left)]),
                 &l1, &u1);
    KdNodeBounds(scaled_bounds.data() + 2 * static_cast<size_t>(right) * dim_,
                 dim_, qs.data(),
                 static_cast<double>(node_end_[static_cast<size_t>(right)] -
                                     node_begin_[static_cast<size_t>(right)]),
                 &l2, &u2);
    total_lo += (l1 + l2) - node_lo;
    total_hi += (u1 + u2) - node_hi;
    // Refine the child with the larger upper bound (the nearer, heavier
    // one) first — it owns most of the remaining interval width.
    if (u1 >= u2) {
      stack.push_back(right);
      values.push_back(l2);
      values.push_back(u2);
      stack.push_back(left);
      values.push_back(l1);
      values.push_back(u1);
    } else {
      stack.push_back(left);
      values.push_back(l1);
      values.push_back(u1);
      stack.push_back(right);
      values.push_back(l2);
      values.push_back(u2);
    }
  }
}

void KdTree::SerializeTo(BinaryWriter* w) const {
  tree_internal::SerializeFlatTreeCommon(points_, order_, node_begin_,
                                         node_end_, node_left_, node_right_,
                                         w);
  w->WriteDoubleVector(box_lo_);
  w->WriteDoubleVector(box_hi_);
}

Result<KdTree> KdTree::DeserializeFrom(BinaryReader* r) {
  // The shared skeleton (points, order, node arrays) is read and
  // structurally validated once for both tree backends (kde/tree_io.h).
  Result<tree_internal::FlatTreeCommon> common =
      tree_internal::DeserializeFlatTreeCommon(r, "KdTree");
  if (!common.ok()) return common.status();
  KdTree tree;
  tree.points_ = std::move(common.value().points);
  tree.dim_ = tree.points_.cols();
  tree.order_ = std::move(common.value().order);
  tree.node_begin_ = std::move(common.value().node_begin);
  tree.node_end_ = std::move(common.value().node_end);
  tree.node_left_ = std::move(common.value().node_left);
  tree.node_right_ = std::move(common.value().node_right);
  Result<std::vector<double>> lo = r->ReadDoubleVector();
  if (!lo.ok()) return lo.status();
  tree.box_lo_ = std::move(lo).value();
  Result<std::vector<double>> hi = r->ReadDoubleVector();
  if (!hi.ok()) return hi.status();
  tree.box_hi_ = std::move(hi).value();

  // Backend-specific geometry: one packed box per node.
  size_t nodes = tree.node_begin_.size();
  if (tree.box_lo_.size() != nodes * tree.dim_ ||
      tree.box_hi_.size() != nodes * tree.dim_) {
    return Status::DataLoss("KdTree payload has inconsistent box arrays");
  }
  tree.root_box_.lo.assign(tree.box_lo_.begin(),
                           tree.box_lo_.begin() + tree.dim_);
  tree.root_box_.hi.assign(tree.box_hi_.begin(),
                           tree.box_hi_.begin() + tree.dim_);
  return tree;
}

}  // namespace fairdrift
