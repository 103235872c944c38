// KdTree::SymmetricKernelSums: the all-pairs kernel pass behind the
// density filter's certified top k (KernelDensity::DensestFittedRows).
//
// A single-tree pass sends every point through the tree as a query, so it
// evaluates each near pair twice, once from each side. This pass walks
// pairs of nodes instead (Gray & Moore, "'N-Body' Problems in Statistical
// Learning", NIPS 2000). A pair of leaves is one block of kernels: each
// value is added to its row's sum and to its column's sum, so each pair of
// points costs one kernel. A node pair whose boxes lie so far apart that
// no kernel across them exceeds skip_kmax is skipped, and its bound
// (count x largest kernel) is charged to both nodes; the charges are
// pushed down to the points at the end.
//
// Parallelism. The tasks are the pairs (X, Y), X <= Y, of the subtrees at
// depth TaskDepth(n). A self task (X, X) owns X's rows and nodes, so it
// adds into the outputs directly. A cross task adds into private buffers
// (X's rows, Y's rows, every node), which are added to the outputs in
// task order once every task is done. Neither the tasks nor that order
// depend on the pool, so the outputs are bitwise the same for any pool.

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "kde/kdtree.h"
#include "kde/negexp.h"
#include "util/parallel.h"

namespace fairdrift {

namespace {

/// Depth of the subtrees whose pairs are the tasks: 1, 3 or 10 tasks, by
/// n alone. At depth 2 the cross tasks' private row sums total 3n doubles.
int TaskDepth(size_t n) { return n < 1024 ? 0 : n < 4096 ? 1 : 2; }

/// One leaf-pair block of kernels: rows [ab, ae) of `points` against the
/// `nb` column points held transposed in `bt` (dim x stride, stride a
/// multiple of 4, padded with zeros). Adds row t's kernel sum into
/// row_sums[t - ab] and, unless col_sums is null, column p's into
/// col_sums[p]. Each kernel is the leaf scan's: u += ((b - a) * ib)^2 in
/// dimension order, then NegExp(-0.5 u).
struct Block {
  const Matrix* points;
  size_t ab, ae;
  const double* bt;
  size_t stride, nb, dim;
  const double* inv_bandwidth;
  double* row_sums;
  double* col_sums;
};

void BlockSumsPortable(const Block& b) {
  for (size_t t = b.ab; t < b.ae; ++t) {
    const double* a = b.points->RowPtr(t);
    double row = 0.0;
    for (size_t p = 0; p < b.nb; p += 2) {
      double u[2] = {0.0, 0.0};
      for (size_t j = 0; j < b.dim; ++j) {
        for (size_t l = 0; l < 2; ++l) {
          double d = (b.bt[j * b.stride + p + l] - a[j]) * b.inv_bandwidth[j];
          u[l] += d * d;
        }
      }
      double k[2];
      NegExpPair(-0.5 * u[0], -0.5 * u[1], &k[0], &k[1]);
      if (p + 1 == b.nb) k[1] = 0.0;  // the padding lane
      row += k[0] + k[1];
      if (b.col_sums != nullptr) {
        b.col_sums[p] += k[0];
        if (p + 1 < b.nb) b.col_sums[p + 1] += k[1];
      }
    }
    b.row_sums[t - b.ab] += row;
  }
}

#if defined(FAIRDRIFT_NEGEXP_HAVE_AVX2_PATH)
/// The kernels of `kGroups` groups of four columns, from column 4 * g0,
/// against the row `a`, lanes past nb zeroed.
template <int kGroups>
__attribute__((target("avx2"))) inline void GroupKernelsAvx2(
    const Block& b, const double* a, size_t g0, __m256d* k) {
  __m256d u[kGroups];
  for (int g = 0; g < kGroups; ++g) u[g] = _mm256_setzero_pd();
  for (size_t j = 0; j < b.dim; ++j) {
    const __m256d aj = _mm256_set1_pd(a[j]);
    const __m256d ibj = _mm256_set1_pd(b.inv_bandwidth[j]);
    const double* col = b.bt + j * b.stride + 4 * g0;
    for (int g = 0; g < kGroups; ++g) {
      __m256d d = _mm256_mul_pd(
          _mm256_sub_pd(_mm256_loadu_pd(col + 4 * g), aj), ibj);
      u[g] = _mm256_add_pd(u[g], _mm256_mul_pd(d, d));
    }
  }
  const __m256d neg_half = _mm256_set1_pd(-0.5);
  for (int g = 0; g < kGroups; ++g) {
    k[g] = negexp_internal::NegExp4Avx2(_mm256_mul_pd(u[g], neg_half));
    const size_t first = 4 * (g0 + static_cast<size_t>(g));
    if (first + 4 > b.nb) {  // the padded group
      const __m256d lane = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
      const __m256d valid =
          _mm256_set1_pd(static_cast<double>(b.nb - first));
      k[g] = _mm256_and_pd(k[g], _mm256_cmp_pd(lane, valid, _CMP_LT_OQ));
    }
  }
}

/// BlockSumsPortable four columns per lane, four groups in flight; its
/// column sums accumulate in `col` (stride doubles, zeroed by the caller)
/// and are added to col_sums at the end.
__attribute__((target("avx2"))) void BlockSumsAvx2(const Block& b,
                                                   double* col) {
  const size_t groups = b.stride / 4;
  for (size_t t = b.ab; t < b.ae; ++t) {
    const double* a = b.points->RowPtr(t);
    __m256d row = _mm256_setzero_pd();
    size_t g = 0;
    __m256d k[4];
    for (; g + 4 <= groups; g += 4) {
      GroupKernelsAvx2<4>(b, a, g, k);
      for (int l = 0; l < 4; ++l) {
        row = _mm256_add_pd(row, k[l]);
        double* c = col + 4 * (g + static_cast<size_t>(l));
        _mm256_storeu_pd(c, _mm256_add_pd(_mm256_loadu_pd(c), k[l]));
      }
    }
    for (; g < groups; ++g) {
      GroupKernelsAvx2<1>(b, a, g, k);
      row = _mm256_add_pd(row, k[0]);
      double* c = col + 4 * g;
      _mm256_storeu_pd(c, _mm256_add_pd(_mm256_loadu_pd(c), k[0]));
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, row);
    b.row_sums[t - b.ab] += (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  }
  if (b.col_sums != nullptr) {
    for (size_t p = 0; p < b.nb; ++p) b.col_sums[p] += col[p];
  }
}
#endif

}  // namespace

/// Where one task's contributions go: tree row t on side A adds into
/// a_sums[t - a_first], on side B into b_sums[t - b_first], and a skipped
/// pair's charge into node_skipped[node id]; plus the block scratch.
struct KdTree::DualSink {
  const double* inv_bandwidth = nullptr;
  double skip_kmax = 0.0;
  double* a_sums = nullptr;
  size_t a_first = 0;
  double* b_sums = nullptr;
  size_t b_first = 0;
  double* node_skipped = nullptr;
  std::vector<double> transposed;  // a block's column points, dim x stride
  std::vector<double> column;      // a block's column sums
};

void KdTree::LeafBlock(int32_t a, int32_t b, double* row_sums,
                       double* col_sums, DualSink* sink) const {
  const size_t bb = node_begin_[static_cast<size_t>(b)];
  const size_t nb = node_end_[static_cast<size_t>(b)] - bb;
  const size_t stride = (nb + 3) / 4 * 4;
  sink->transposed.assign(dim_ * stride, 0.0);
  for (size_t p = 0; p < nb; ++p) {
    const double* row = points_.RowPtr(bb + p);
    for (size_t j = 0; j < dim_; ++j) sink->transposed[j * stride + p] = row[j];
  }
  Block block{&points_,
              node_begin_[static_cast<size_t>(a)],
              node_end_[static_cast<size_t>(a)],
              sink->transposed.data(),
              stride,
              nb,
              dim_,
              sink->inv_bandwidth,
              row_sums,
              col_sums};
#if defined(FAIRDRIFT_NEGEXP_HAVE_AVX2_PATH)
  if (HasAvx2()) {
    sink->column.assign(stride, 0.0);
    BlockSumsAvx2(block, sink->column.data());
    return;
  }
#endif
  BlockSumsPortable(block);
}

double KdTree::BoxGapScaledSqDist(int32_t a, int32_t b,
                                  const double* inv_bandwidth) const {
  const double* alo = box_lo_.data() + static_cast<size_t>(a) * dim_;
  const double* ahi = box_hi_.data() + static_cast<size_t>(a) * dim_;
  const double* blo = box_lo_.data() + static_cast<size_t>(b) * dim_;
  const double* bhi = box_hi_.data() + static_cast<size_t>(b) * dim_;
  double acc = 0.0;
  for (size_t j = 0; j < dim_; ++j) {
    double gap = std::max(std::max(blo[j] - ahi[j], alo[j] - bhi[j]), 0.0) *
                 inv_bandwidth[j];
    acc += gap * gap;
  }
  return acc;
}

void KdTree::DualSelf(int32_t a, DualSink* sink) const {
  const int32_t left = node_left_[static_cast<size_t>(a)];
  if (left >= 0) {
    const int32_t right = node_right_[static_cast<size_t>(a)];
    DualSelf(left, sink);
    DualSelf(right, sink);
    DualCross(left, right, sink);
    return;
  }
  // A leaf: the whole block against itself, row sums only. Each pair
  // counts on both of its rows, and each point meets itself, exp(0) = 1.
  const size_t begin = node_begin_[static_cast<size_t>(a)];
  LeafBlock(a, a, sink->a_sums + (begin - sink->a_first), nullptr, sink);
}

void KdTree::DualCross(int32_t a, int32_t b, DualSink* sink) const {
  const size_t ab = node_begin_[static_cast<size_t>(a)];
  const size_t ae = node_end_[static_cast<size_t>(a)];
  const size_t bb = node_begin_[static_cast<size_t>(b)];
  const size_t be = node_end_[static_cast<size_t>(b)];
  const double kmax =
      std::exp(-0.5 * BoxGapScaledSqDist(a, b, sink->inv_bandwidth));
  if (kmax <= sink->skip_kmax) {
    sink->node_skipped[a] += static_cast<double>(be - bb) * kmax;
    sink->node_skipped[b] += static_cast<double>(ae - ab) * kmax;
    return;
  }
  const bool a_leaf = node_left_[static_cast<size_t>(a)] < 0;
  const bool b_leaf = node_left_[static_cast<size_t>(b)] < 0;
  if (!a_leaf && (b_leaf || ae - ab >= be - bb)) {
    DualCross(node_left_[static_cast<size_t>(a)], b, sink);
    DualCross(node_right_[static_cast<size_t>(a)], b, sink);
    return;
  }
  if (!b_leaf) {
    DualCross(a, node_left_[static_cast<size_t>(b)], sink);
    DualCross(a, node_right_[static_cast<size_t>(b)], sink);
    return;
  }
  // Two leaves: one block, its row sums to side A, column sums to side B.
  LeafBlock(a, b, sink->a_sums + (ab - sink->a_first),
            sink->b_sums + (bb - sink->b_first), sink);
}

bool KdTree::SymmetricKernelSums(const double* inv_bandwidth,
                                 double skip_kmax, ThreadPool* pool,
                                 std::vector<double>* sum,
                                 std::vector<double>* skipped) const {
  // Finite points with a finite coordinate range: every difference, and so
  // every kernel and box gap, is then well defined (no Inf - Inf).
  for (double v : points_.data()) {
    if (!std::isfinite(v)) return false;
  }
  for (size_t j = 0; j < dim_; ++j) {
    if (!std::isfinite(box_hi_[j] - box_lo_[j])) return false;
  }
  const size_t n = size();
  const size_t nodes = node_begin_.size();

  // The task subtrees, left to right: the nodes at TaskDepth(n), or the
  // leaves above it.
  std::vector<int32_t> frontier = {0};
  for (int level = 0; level < TaskDepth(n); ++level) {
    std::vector<int32_t> next;
    for (int32_t id : frontier) {
      const int32_t left = node_left_[static_cast<size_t>(id)];
      if (left < 0) {
        next.push_back(id);
      } else {
        next.push_back(left);
        next.push_back(node_right_[static_cast<size_t>(id)]);
      }
    }
    frontier = std::move(next);
  }
  std::vector<std::pair<int32_t, int32_t>> tasks;
  for (size_t i = 0; i < frontier.size(); ++i) {
    for (size_t j = i; j < frontier.size(); ++j) {
      tasks.emplace_back(frontier[i], frontier[j]);
    }
  }
  // Dispatch the cross tasks, the larger ones, first.
  std::vector<size_t> dispatch(tasks.size());
  for (size_t k = 0; k < tasks.size(); ++k) dispatch[k] = k;
  std::stable_partition(dispatch.begin(), dispatch.end(), [&](size_t k) {
    return tasks[k].first != tasks[k].second;
  });

  sum->assign(n, 0.0);
  std::vector<double> node_skipped(nodes, 0.0);
  std::vector<std::vector<double>> cross(tasks.size());
  ParallelForEach(0, tasks.size(), pool, [&](size_t i) {
    const size_t k = dispatch[i];
    const auto [x, y] = tasks[k];
    DualSink sink;
    sink.inv_bandwidth = inv_bandwidth;
    sink.skip_kmax = skip_kmax;
    if (x == y) {
      sink.a_sums = sink.b_sums = sum->data();
      sink.node_skipped = node_skipped.data();
      DualSelf(x, &sink);
      return;
    }
    const size_t nx = node_end_[static_cast<size_t>(x)] -
                      node_begin_[static_cast<size_t>(x)];
    const size_t ny = node_end_[static_cast<size_t>(y)] -
                      node_begin_[static_cast<size_t>(y)];
    std::vector<double>& buf = cross[k];
    buf.assign(nx + ny + nodes, 0.0);
    sink.a_sums = buf.data();
    sink.a_first = node_begin_[static_cast<size_t>(x)];
    sink.b_sums = buf.data() + nx;
    sink.b_first = node_begin_[static_cast<size_t>(y)];
    sink.node_skipped = buf.data() + nx + ny;
    DualCross(x, y, &sink);
  });
  for (size_t k = 0; k < tasks.size(); ++k) {
    if (cross[k].empty()) continue;  // a self task
    const auto [x, y] = tasks[k];
    const size_t bx = node_begin_[static_cast<size_t>(x)];
    const size_t nx = node_end_[static_cast<size_t>(x)] - bx;
    const size_t by = node_begin_[static_cast<size_t>(y)];
    const size_t ny = node_end_[static_cast<size_t>(y)] - by;
    const double* buf = cross[k].data();
    for (size_t t = 0; t < nx; ++t) (*sum)[bx + t] += buf[t];
    for (size_t t = 0; t < ny; ++t) (*sum)[by + t] += buf[nx + t];
    for (size_t id = 0; id < nodes; ++id) {
      node_skipped[id] += buf[nx + ny + id];
    }
    std::vector<double>().swap(cross[k]);
  }

  // A point's charge is the sum of its ancestors' and its leaf's.
  skipped->assign(n, 0.0);
  std::vector<std::pair<int32_t, double>> stack = {{0, node_skipped[0]}};
  while (!stack.empty()) {
    const auto [id, charge] = stack.back();
    stack.pop_back();
    const size_t node = static_cast<size_t>(id);
    if (node_left_[node] < 0) {
      for (size_t t = node_begin_[node]; t < node_end_[node]; ++t) {
        (*skipped)[t] = charge;
      }
      continue;
    }
    for (int32_t child : {node_right_[node], node_left_[node]}) {
      const size_t c = static_cast<size_t>(child);
      stack.emplace_back(child, charge + node_skipped[c]);
    }
  }
  return true;
}

}  // namespace fairdrift
