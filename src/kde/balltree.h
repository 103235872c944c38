// Ball tree over points in R^d.
//
// The alternative index the paper names for density estimation in higher
// dimensions (§III-C cites Omohundro's ball trees next to KD-trees,
// "m > 20"). Nodes store a centroid and covering radius instead of an
// axis-aligned box; pruning bounds derive from the triangle inequality,
// which keeps their cost O(d) per node regardless of how elongated the
// point set is. The interface mirrors KdTree so the KDE can swap
// backends (KdeOptions::tree_backend): flat structure-of-arrays node
// storage (begin/end/left/right, packed centroid, radius), iterative
// allocation-free traversal over a TraversalScratch, and the recursive
// kernel sum kept as the bitwise oracle.

#ifndef FAIRDRIFT_KDE_BALLTREE_H_
#define FAIRDRIFT_KDE_BALLTREE_H_

#include <cstdint>
#include <vector>

#include "kde/scratch.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace fairdrift {

class BinaryWriter;  // util/binary_io.h
class BinaryReader;

/// Static ball tree; split on the widest dimension at the median.
class BallTree {
 public:
  /// Creates an empty tree; use Build() to obtain a usable one.
  BallTree() = default;

  /// Builds a tree over the rows of `points`. Fails on an empty matrix.
  static Result<BallTree> Build(const Matrix& points, size_t leaf_size = 32);

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
  /// provably below `atol` are approximated by the exp()-free
  /// squared-distance rule documented on KdTree::GaussianKernelSum
  /// (atol = 0 gives the exact sum). Under anisotropic scaling the ball
  /// bound uses the largest scale, which is valid but looser than the KD
  /// box bound; the exact-sum contract is identical. Convenience wrapper
  /// over the scratch overload.
  double GaussianKernelSum(const std::vector<double>& query,
                           const std::vector<double>& inv_bandwidth,
                           double atol = 0.0) const;

  /// Allocation-free kernel sum over the flat node layout. Bitwise
  /// identical to GaussianKernelSumRecursive for every input.
  double GaussianKernelSum(const double* query, const double* inv_bandwidth,
                           double atol, TraversalScratch* scratch) const;

  /// Reference recursive kernel sum (the pre-flattening implementation),
  /// kept as the migration oracle for the iterative sweep.
  double GaussianKernelSumRecursive(const std::vector<double>& query,
                                    const std::vector<double>& inv_bandwidth,
                                    double atol = 0.0) const;

  /// Fills `out` with the bandwidth-scaled per-node ball geometry consumed
  /// by ClassifyKernelSum: node i occupies [i*(dim+1), (i+1)*(dim+1)) as
  /// its scaled centroid followed by its scaled spread
  /// (radius * max(inv_bandwidth)). Built once per bandwidth at fit (or
  /// load) time.
  void BuildScaledBounds(const std::vector<double>& inv_bandwidth,
                         std::vector<double>* out) const;

  /// Bounded-work three-way comparison of the Gaussian kernel sum against
  /// `threshold`; the KdTree::ClassifyKernelSum contract, ball-tree
  /// edition (triangle-inequality bounds instead of box bounds).
  int ClassifyKernelSum(const double* query, const double* inv_bandwidth,
                        const std::vector<double>& scaled_bounds,
                        double threshold, double eps_rel, double eps_abs,
                        TraversalScratch* scratch) const;

  /// The indexed points in node-contiguous order; row t is the caller's
  /// row order()[t].
  const Matrix& points() const { return points_; }
  const std::vector<size_t>& order() const { return order_; }

  /// Approximate resident bytes (points + flat node arrays); feeds the
  /// KdeCache's byte-bounded eviction.
  size_t ApproxMemoryBytes() const {
    return points_.data().size() * sizeof(double) +
           order_.size() * sizeof(size_t) +
           (node_begin_.size() + node_end_.size()) * sizeof(size_t) +
           (node_left_.size() + node_right_.size()) * sizeof(int32_t) +
           (centroid_.size() + radius_.size()) * sizeof(double);
  }

  /// Appends the built state verbatim (permuted points, order map, flat
  /// node arrays, packed centroids/radii) to `w`; the KdTree::SerializeTo
  /// contract, ball-tree edition.
  void SerializeTo(BinaryWriter* w) const;

  /// Rebuilds a tree from SerializeTo's payload with the same structural
  /// validation as KdTree::DeserializeFrom.
  static Result<BallTree> DeserializeFrom(BinaryReader* r);

 private:
  int BuildNode(const Matrix& pts, size_t begin, size_t end, size_t leaf_size);
  double KernelSumRecurse(int32_t node_id, const double* query,
                          const double* inv_bandwidth, double max_scale,
                          double atol) const;
  /// Exact kernel sum over leaf `id`'s contiguous point range.
  double LeafKernelSum(int32_t id, const double* query,
                       const double* inv_bandwidth) const;

  size_t dim_ = 0;
  Matrix points_;              // rows permuted into node-contiguous order
  std::vector<size_t> order_;  // order_[i] = caller row id of points_ row i

  // Flat structure-of-arrays node storage. Children are node ids (-1 for
  // leaves); node i's centroid occupies [i * dim_, (i + 1) * dim_) of the
  // packed centroid array.
  std::vector<size_t> node_begin_;
  std::vector<size_t> node_end_;
  std::vector<int32_t> node_left_;
  std::vector<int32_t> node_right_;
  std::vector<double> centroid_;
  std::vector<double> radius_;  // max Euclidean distance from centroid
};

}  // namespace fairdrift

#endif  // FAIRDRIFT_KDE_BALLTREE_H_
