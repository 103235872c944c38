#include "core/density_filter.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "kde/kde_cache.h"
#include "util/parallel.h"

namespace fairdrift {

namespace {

// One (group x label) cell the filter ranks: its rows, how many of them to
// keep, and the estimator fitted on its numeric attributes.
struct RankedCell {
  std::vector<size_t> indices;  // dataset row ids of the cell
  size_t keep = 0;              // how many of them to keep
  uint64_t cell_slot = 0;       // g * num_classes + y (fingerprint memo slot)
  std::shared_ptr<const KernelDensity> kde;  // null: no numeric attributes
};

Status FitCell(const Dataset& data, const KdeOptions& options,
               RankedCell* cell) {
  Matrix numeric = data.Subset(cell->indices).NumericMatrix();
  if (numeric.cols() == 0) return Status::OK();
  // The (dataset version, cell) hint lets the fit cache skip the O(nd)
  // content rehash when the same unmutated dataset is profiled again
  // (tuning grids, repeated trials).
  Result<std::shared_ptr<const KernelDensity>> fitted = FitThroughCache(
      numeric, options,
      KdeCacheHint{data.version(), cell->cell_slot,
                   kKdeHintSpaceDensityFilterCell});
  if (!fitted.ok()) return fitted.status();
  cell->kde = std::move(fitted).value();
  return Status::OK();
}

}  // namespace

Result<std::vector<size_t>> DensityFilterIndices(
    const Dataset& data, const DensityFilterOptions& options) {
  if (!data.has_labels() || !data.has_groups()) {
    return Status::FailedPrecondition(
        "DensityFilter: dataset needs labels and groups");
  }
  if (!(options.keep_fraction > 0.0 && options.keep_fraction <= 1.0)) {
    // Written so that NaN fails too: no row count corresponds to it.
    return Status::InvalidArgument(
        "DensityFilter: keep_fraction must be in (0, 1]");
  }

  // Bucket the rows by cell in one pass (ascending, as CellIndices lists
  // them): a CellIndices scan per cell is O(n) each, which dominates when
  // there are hundreds of small cells.
  const size_t num_classes = static_cast<size_t>(data.num_classes());
  std::vector<std::vector<size_t>> by_cell(
      static_cast<size_t>(data.num_groups()) * num_classes);
  for (size_t i = 0; i < data.size(); ++i) {
    by_cell[static_cast<size_t>(data.groups()[i]) * num_classes +
            static_cast<size_t>(data.labels()[i])]
        .push_back(i);
  }

  std::vector<size_t> kept;
  std::vector<RankedCell> cells;
  for (size_t slot = 0; slot < by_cell.size(); ++slot) {
    std::vector<size_t>& cell = by_cell[slot];
    if (cell.empty()) continue;
    size_t k = static_cast<size_t>(std::ceil(
        options.keep_fraction * static_cast<double>(cell.size())));
    k = std::max(k, std::min(options.min_cell_size, cell.size()));
    if (k >= cell.size()) {
      kept.insert(kept.end(), cell.begin(), cell.end());
      continue;
    }
    RankedCell ranked;
    ranked.indices = std::move(cell);
    ranked.keep = k;
    ranked.cell_slot = slot;
    cells.push_back(std::move(ranked));
  }

  // Fit the cells in parallel (through the global KdeCache unless the
  // options opt out), then take each cell's top k from its estimator,
  // one cell at a time: DensestFittedRows spreads a cell over the pool.
  std::vector<Status> fitted = ParallelMap<Status>(
      cells.size(),
      [&](size_t t) { return FitCell(data, options.kde, &cells[t]); });
  for (const Status& st : fitted) FAIRDRIFT_RETURN_IF_ERROR(st);
  for (const RankedCell& cell : cells) {
    if (!cell.kde) {
      // No numeric attributes to rank on: keep the cell whole.
      kept.insert(kept.end(), cell.indices.begin(), cell.indices.end());
      continue;
    }
    for (size_t row : cell.kde->DensestFittedRows(cell.keep)) {
      kept.push_back(cell.indices[row]);
    }
  }

  if (kept.empty()) {
    return Status::InvalidArgument("DensityFilter: nothing kept");
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

Result<Dataset> ApplyDensityFilter(const Dataset& data,
                                   const DensityFilterOptions& options) {
  Result<std::vector<size_t>> idx = DensityFilterIndices(data, options);
  if (!idx.ok()) return idx.status();
  return data.Subset(idx.value());
}

}  // namespace fairdrift
