// Cross-trial cache of fitted KernelDensity estimators.
//
// The pipeline refits KDEs on identical data over and over: CONFAIR's
// alpha tuning re-derives the (group x label) profile once per grid
// candidate, every bench method column re-splits with the same seed, and
// repeated trials share cells. Fitting is deterministic, so a fit is fully
// determined by (data fingerprint, KdeOptions) — this cache memoizes it.
//
// Keying: a 128-bit FNV-1a fingerprint of the matrix contents plus its
// shape, and the option fields that affect the fit. Entries are immutable
// shared_ptr<const KernelDensity>, safe to evaluate concurrently from any
// number of threads. Bounded LRU keeps memory in check; hit/miss/eviction
// counters feed the bench summaries (BENCH_kde.json).

#ifndef FAIRDRIFT_KDE_KDE_CACHE_H_
#define FAIRDRIFT_KDE_KDE_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>

#include "kde/kde.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace fairdrift {

/// 128-bit content fingerprint of a matrix (two independent FNV-1a streams
/// over the raw double bits, plus the shape). Collisions across distinct
/// cell matrices are cryptographically unlikely at this width for the
/// cache's working-set sizes.
struct KdeDataFingerprint {
  uint64_t h1 = 0;
  uint64_t h2 = 0;
  size_t rows = 0;
  size_t cols = 0;

  bool operator<(const KdeDataFingerprint& o) const;
  bool operator==(const KdeDataFingerprint& o) const;
};

/// Fingerprints the rows of `data`. O(rows * cols), far below a fit.
KdeDataFingerprint FingerprintMatrix(const Matrix& data);

/// Memo namespaces for KdeCacheHint::space. Each call-site family that
/// derives matrices from a Dataset must use its own space so slot ids
/// never collide across families (e.g. the density filter's cell 0 vs a
/// whole-dataset view) — a collision would alias two different matrices'
/// fingerprints under one memo key.
inline constexpr uint64_t kKdeHintSpaceDensityFilterCell = 1;
inline constexpr uint64_t kKdeHintSpaceFullDataset = 2;

/// O(1) lookup hint: callers that derive `data` from a Dataset pass the
/// dataset's version tag plus a (space, slot) pair identifying the
/// derived view (e.g. space = density-filter cells, slot = cell index).
/// The cache memoizes the content fingerprint under
/// (dataset_version, space, slot), so repeated lookups from an unchanged
/// dataset skip the O(nd) rehash — while the cache key itself stays the
/// *content* fingerprint, preserving hits across re-splits and re-built
/// datasets with identical contents.
struct KdeCacheHint {
  uint64_t dataset_version = 0;  ///< 0 = no hint (always rehash)
  uint64_t slot = 0;             ///< caller-chosen sub-view id
  uint64_t space = 0;            ///< call-site namespace (see constants)
};

/// Thread-safe bounded LRU cache of fitted estimators. Resident memory is
/// bounded by approximate bytes (long-lived serving processes cache
/// GB-scale cells; entry counts say nothing about footprint); the entry
/// capacity remains as a secondary bound.
class KdeCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;      ///< each miss is one KernelDensity::Fit call
    uint64_t evictions = 0;
    size_t entries = 0;
    /// Approximate bytes held by the cached estimators.
    size_t resident_bytes = 0;
    /// (version, slot) memo hits: lookups that skipped the O(nd) rehash.
    uint64_t fingerprint_memo_hits = 0;
    uint64_t fingerprint_memo_misses = 0;
    double hit_rate() const {
      uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  /// Default byte bound of the global cache.
  static constexpr size_t kDefaultMaxBytes = size_t{256} << 20;  // 256 MiB

  explicit KdeCache(size_t capacity = 256, size_t max_bytes = kDefaultMaxBytes)
      : capacity_(capacity), max_bytes_(max_bytes) {}

  /// Returns the cached estimator for (data, options), fitting and
  /// inserting on a miss. The fit itself runs outside the cache lock, so
  /// concurrent misses on *different* data never serialize (two racing
  /// misses on the same key both fit; the results are identical and the
  /// first insert wins). A non-zero `hint` resolves the content
  /// fingerprint through the O(1) (version, slot) memo when possible.
  Result<std::shared_ptr<const KernelDensity>> FitOrGet(
      const Matrix& data, const KdeOptions& options,
      const KdeCacheHint& hint = {});

  /// Drops every entry (counters keep accumulating; see ResetStats).
  void Clear();

  /// Zeroes the hit/miss/eviction counters.
  void ResetStats();

  Stats stats() const;

  size_t capacity() const { return capacity_; }
  void set_capacity(size_t capacity);

  size_t max_bytes() const { return max_bytes_; }
  void set_max_bytes(size_t max_bytes);

 private:
  struct Key {
    KdeDataFingerprint data;
    int bandwidth_rule = 0;
    double atol = 0.0;
    size_t leaf_size = 0;
    int backend = 0;

    bool operator<(const Key& o) const;
  };

  struct Entry {
    std::shared_ptr<const KernelDensity> kde;
    size_t bytes = 0;                  // ApproxMemoryBytes at insertion
    std::list<Key>::iterator lru_pos;  // position in lru_ (front = hottest)
  };

  /// Bound on the (version, slot) fingerprint memo. Versions are
  /// process-unique and never reused, so stale entries are merely dead
  /// weight; the memo is dropped wholesale when it outgrows this.
  static constexpr size_t kFingerprintMemoCapacity = 1 << 16;

  static Key MakeKey(const KdeDataFingerprint& fp, const KdeOptions& options);
  KdeDataFingerprint ResolveFingerprint(const Matrix& data,
                                        const KdeCacheHint& hint);
  void EvictIfOverBoundsLocked();

  mutable std::mutex mu_;
  size_t capacity_;
  size_t max_bytes_;
  size_t resident_bytes_ = 0;
  std::map<Key, Entry> entries_;
  std::list<Key> lru_;
  std::map<std::tuple<uint64_t, uint64_t, uint64_t>, KdeDataFingerprint>
      fingerprint_memo_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t fingerprint_memo_hits_ = 0;
  uint64_t fingerprint_memo_misses_ = 0;
};

/// The process-wide cache used by DensityRanking (and therefore the
/// density filter and every profiling pass) when
/// KdeOptions::use_fit_cache is set.
KdeCache& GlobalKdeCache();

/// Fits `data` the way every call site does: through GlobalKdeCache()
/// (with `hint`) when options.use_fit_cache is set, else as a private
/// estimator nothing else shares.
Result<std::shared_ptr<const KernelDensity>> FitThroughCache(
    const Matrix& data, const KdeOptions& options,
    const KdeCacheHint& hint = {});

}  // namespace fairdrift

#endif  // FAIRDRIFT_KDE_KDE_CACHE_H_
