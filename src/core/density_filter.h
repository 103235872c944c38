// Algorithm 3 of the paper: density-based input filtering for stronger
// conformance constraints.
//
// Constraints learned from high-variance data are broad and permissive and
// lose their discriminative power. Before deriving CCs, each
// (group x label) cell is ranked by kernel-density estimates and only the
// densest fraction is kept. The filtered data feeds *constraint discovery
// only* — model training still sees the full dataset.
//
// Interpretation note (documented in DESIGN.md): the paper sets
// "k = 0.2 * n"; we apply the fraction per cell (k_cell = 0.2 * |cell|),
// which preserves the intent for minority cells that are far smaller than
// 0.2 of the full input.

#ifndef FAIRDRIFT_CORE_DENSITY_FILTER_H_
#define FAIRDRIFT_CORE_DENSITY_FILTER_H_

#include <vector>

#include "data/dataset.h"
#include "kde/kde.h"
#include "util/status.h"

namespace fairdrift {

/// Options for the density-based filter.
struct DensityFilterOptions {
  /// Fraction of each (group x label) cell to keep (paper: 0.2).
  double keep_fraction = 0.2;
  /// Never reduce a cell below this many tuples (degenerate-cell guard).
  size_t min_cell_size = 8;
  /// KDE configuration.
  KdeOptions kde;
};

/// Returns the indices (into `data`) of the tuples kept by Algorithm 3:
/// per (group x label) cell, the top `keep_fraction` densest tuples.
/// Requires labels and groups. Cells too small to rank are kept whole.
///
/// Each ranked cell's top k is KernelDensity::DensestFittedRows on the
/// cell's estimator: exactly the first k of the cell's DensityRanking
/// (density descending, ties by row), without evaluating every row. One
/// symmetric dual-tree pass bounds every row's density, the rows those
/// bounds place inside or outside the top k are settled, and only the
/// rest (about 3% of MEPS) get the exact evaluation. Cells are fitted in
/// parallel and ranked one at a time, each spread over the pool.
/// InvalidArgument when keep_fraction is NaN or outside (0, 1].
Result<std::vector<size_t>> DensityFilterIndices(
    const Dataset& data, const DensityFilterOptions& options = {});

/// Convenience wrapper materializing the filtered dataset D'.
Result<Dataset> ApplyDensityFilter(const Dataset& data,
                                   const DensityFilterOptions& options = {});

}  // namespace fairdrift

#endif  // FAIRDRIFT_CORE_DENSITY_FILTER_H_
