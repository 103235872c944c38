// KD-tree over points in R^d.
//
// Built once per (group x label) cell and then used to accelerate Gaussian
// kernel density evaluation (paper Algorithm 3 cites the tree-based
// estimator of scikit-learn). Also exposes exact nearest-neighbour queries,
// which the test-suite uses as an oracle check.
//
// Nodes live in a flat structure-of-arrays layout (contiguous
// begin/end/left/right plus packed box lo/hi arrays) and queries run as an
// iterative sweep over it with a caller-supplied TraversalScratch, so the
// hot path performs zero heap allocations per query. The pre-flattening
// recursive kernel sum is kept as GaussianKernelSumRecursive — the bitwise
// oracle the tests pin the iterative sweep against.

#ifndef FAIRDRIFT_KDE_KDTREE_H_
#define FAIRDRIFT_KDE_KDTREE_H_

#include <cstdint>
#include <vector>

#include "kde/scratch.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace fairdrift {

class BinaryWriter;  // util/binary_io.h
class BinaryReader;
class ThreadPool;  // util/parallel.h

/// Axis-aligned bounding box.
struct BoundingBox {
  std::vector<double> lo;
  std::vector<double> hi;
};

/// Static KD-tree; split on the widest dimension at the median.
class KdTree {
 public:
  /// Creates an empty tree; use Build() to obtain a usable one.
  KdTree() = default;

  /// Builds a tree over the rows of `points`. Fails on an empty matrix.
  static Result<KdTree> Build(const Matrix& points, size_t leaf_size = 32);

  /// Number of indexed points.
  size_t size() const { return points_.rows(); }

  /// Dimensionality.
  size_t dim() const { return dim_; }

  /// Indices of the k nearest neighbours to `query` (ascending distance).
  /// k is clamped to size(). Convenience wrapper over the scratch overload
  /// (uses the calling thread's scratch).
  std::vector<size_t> NearestNeighbors(const std::vector<double>& query,
                                       size_t k) const;

  /// Allocation-free kNN: writes the k nearest indices into `out`
  /// (ascending distance), reusing `scratch` and `out`'s capacity.
  void NearestNeighbors(const double* query, size_t k,
                        TraversalScratch* scratch,
                        std::vector<size_t>* out) const;

  /// Sum over all points of exp(-0.5 * ||(x - query) / h||^2), with h the
  /// per-dimension scale vector. Nodes whose kernel-value spread is
  /// provably below `atol` are approximated by count * sqrt(kmax * kmin)
  /// — the geometric-mean kernel, which lies in [kmin, kmax] and errs at
  /// most atol per point (atol = 0 gives the exact sum). The proof needs
  /// only squared box distances (spread <= min((dmax2 - dmin2)/2, kmax)),
  /// so descended interior nodes cost no exp() at all. This is the
  /// workhorse of the KDE. Convenience wrapper over the scratch overload
  /// (uses the calling thread's scratch).
  double GaussianKernelSum(const std::vector<double>& query,
                           const std::vector<double>& inv_bandwidth,
                           double atol = 0.0) const;

  /// Allocation-free kernel sum over the flat node layout. Bitwise
  /// identical to GaussianKernelSumRecursive for every input.
  double GaussianKernelSum(const double* query, const double* inv_bandwidth,
                           double atol, TraversalScratch* scratch) const;

  /// Reference recursive kernel sum (the pre-flattening implementation).
  /// Slow path kept as the migration oracle for the iterative sweep; the
  /// tests assert bitwise equality between the two.
  double GaussianKernelSumRecursive(const std::vector<double>& query,
                                    const std::vector<double>& inv_bandwidth,
                                    double atol = 0.0) const;

  /// Fills `out` with the bandwidth-scaled per-node box geometry consumed
  /// by ClassifyKernelSum: node i occupies [2*i*dim, 2*(i+1)*dim) as its
  /// scaled lo followed by its scaled hi. Built once per bandwidth at fit
  /// (or load) time, so the per-node classification bound needs no
  /// inv_bandwidth multiplies on the query path.
  void BuildScaledBounds(const std::vector<double>& inv_bandwidth,
                         std::vector<double>* out) const;

  /// Bounded-work three-way comparison of the Gaussian kernel sum against
  /// `threshold`: +1 when the sum is provably >= threshold, -1 when
  /// provably below, 0 when undecided (interval straddles the threshold
  /// within slack, or the node budget ran out). The maintained interval
  /// brackets — with relative slack `eps_rel` and absolute slack
  /// `eps_abs` — every value GaussianKernelSum can return for this query
  /// at any atol whose settling error the slacks cover, so a nonzero
  /// answer is guaranteed to agree with comparing the exact sum; callers
  /// resolve 0 by evaluating the oracle. `scaled_bounds` must come from
  /// BuildScaledBounds with the same inv_bandwidth.
  int ClassifyKernelSum(const double* query, const double* inv_bandwidth,
                        const std::vector<double>& scaled_bounds,
                        double threshold, double eps_rel, double eps_abs,
                        TraversalScratch* scratch) const;

  /// The symmetric dual-tree pass over every pair of indexed points
  /// (Gray & Moore, NIPS 2000) behind KernelDensity::DensestFittedRows.
  /// For tree row t (points() order) it returns sum[t], the sum of
  /// exp(-0.5 * ||(x_t - x_p) * inv_bandwidth||^2) over the points p its
  /// node pairs evaluated, p = t included, and skipped[t], the sum over
  /// the node pairs it skipped of (the other node's count) x (the pair's
  /// largest kernel, from the two boxes' gap). A pair is skipped only when
  /// that largest kernel is <= skip_kmax. So, up to rounding, sum[t] <=
  /// (the exact kernel sum over all points) <= sum[t] + skipped[t].
  ///
  /// Each block of two leaves is evaluated once and added to both of its
  /// sides (a leaf against itself is evaluated whole, a leaf_size share
  /// of the work). The parallel tasks on `pool` are the pairs of subtrees
  /// at a depth fixed by size() alone; a task adds into private sums that
  /// are reduced in task order, so the output is bitwise identical for
  /// every worker count. Scratch is under 4 * size() doubles beyond the
  /// outputs.
  /// Returns false, with the outputs unspecified, when a point or the
  /// coordinate range is non-finite. Requires the node layout Build makes
  /// (nested point ranges, shallow depth); a deserialized tree is not
  /// checked for it, so callers run this on built trees only.
  bool SymmetricKernelSums(const double* inv_bandwidth, double skip_kmax,
                           ThreadPool* pool, std::vector<double>* sum,
                           std::vector<double>* skipped) const;

  /// The indexed points in node-contiguous order; row t is the caller's
  /// row order()[t].
  const Matrix& points() const { return points_; }
  const std::vector<size_t>& order() const { return order_; }

  /// The bounding box of all indexed points.
  const BoundingBox& root_box() const { return root_box_; }

  /// Approximate resident bytes (points + flat node arrays); feeds the
  /// KdeCache's byte-bounded eviction.
  size_t ApproxMemoryBytes() const {
    return points_.data().size() * sizeof(double) +
           order_.size() * sizeof(size_t) +
           (node_begin_.size() + node_end_.size()) * sizeof(size_t) +
           (node_left_.size() + node_right_.size()) * sizeof(int32_t) +
           (box_lo_.size() + box_hi_.size()) * sizeof(double);
  }

  /// Appends the built state verbatim (permuted points, order map, flat
  /// node arrays, packed boxes) to `w`. A deserialized tree answers every
  /// query bitwise identically to this one — snapshot persistence uses
  /// this to make monitored-snapshot loads O(n) instead of an
  /// O(n log n) rebuild.
  void SerializeTo(BinaryWriter* w) const;

  /// Rebuilds a tree from SerializeTo's payload, validating the
  /// structural invariants (array shapes, child ids, point ranges) so a
  /// forged payload fails with Status::DataLoss instead of reading out
  /// of bounds at query time.
  static Result<KdTree> DeserializeFrom(BinaryReader* r);

 private:
  int BuildNode(const Matrix& pts, size_t begin, size_t end, size_t leaf_size);
  double KernelSumRecurse(int32_t node_id, const double* query,
                          const double* inv_bandwidth, double atol) const;

  /// Squared scaled distance from query to node `id`'s box (0 when inside).
  double MinScaledSqDist(int32_t id, const double* query,
                         const double* inv_bandwidth) const;
  /// Min and max squared scaled distances in one fused branch-free pass.
  void MinMaxScaledSqDist(int32_t id, const double* query,
                          const double* inv_bandwidth, double* dmin2,
                          double* dmax2) const;
  /// Exact kernel sum over leaf `id`'s contiguous point range.
  double LeafKernelSum(int32_t id, const double* query,
                       const double* inv_bandwidth) const;
  /// Squared scaled distance between the boxes of nodes a and b.
  double BoxGapScaledSqDist(int32_t a, int32_t b,
                            const double* inv_bandwidth) const;
  /// SymmetricKernelSums' traversal (dual_tree.cc): every pair within
  /// node a, and every pair across nodes a and b.
  struct DualSink;
  void DualSelf(int32_t a, DualSink* sink) const;
  void DualCross(int32_t a, int32_t b, DualSink* sink) const;
  /// The kernel block of leaves a x b: row sums into row_sums (leaf a's
  /// rows from 0), column sums into col_sums unless it is null.
  void LeafBlock(int32_t a, int32_t b, double* row_sums, double* col_sums,
                 DualSink* sink) const;
  /// Unscaled squared distance from query to the box (kNN pruning bound).
  double MinSqDist(int32_t id, const double* query) const;

  size_t dim_ = 0;
  Matrix points_;              // rows permuted into node-contiguous order
  std::vector<size_t> order_;  // order_[i] = caller row id of points_ row i

  // Flat structure-of-arrays node storage. Children are node ids (-1 for
  // leaves); node i's box occupies [i * dim_, (i + 1) * dim_) of the packed
  // lo/hi arrays, so traversal touches contiguous memory instead of
  // chasing per-node vectors.
  std::vector<size_t> node_begin_;
  std::vector<size_t> node_end_;
  std::vector<int32_t> node_left_;
  std::vector<int32_t> node_right_;
  std::vector<double> box_lo_;
  std::vector<double> box_hi_;
  BoundingBox root_box_;
};

}  // namespace fairdrift

#endif  // FAIRDRIFT_KDE_KDTREE_H_
