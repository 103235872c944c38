#include "kde/kde_cache.h"

#include <algorithm>
#include <cstring>
#include <tuple>
#include <utility>

namespace fairdrift {

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ull;

inline uint64_t FnvMix(uint64_t h, uint64_t v) {
  // FNV-1a over the 8 bytes of v.
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffull;
    h *= kFnvPrime;
  }
  return h;
}

inline uint64_t DoubleBits(double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d), "double is not 64-bit");
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace

bool KdeDataFingerprint::operator<(const KdeDataFingerprint& o) const {
  return std::tie(h1, h2, rows, cols) < std::tie(o.h1, o.h2, o.rows, o.cols);
}

bool KdeDataFingerprint::operator==(const KdeDataFingerprint& o) const {
  return h1 == o.h1 && h2 == o.h2 && rows == o.rows && cols == o.cols;
}

KdeDataFingerprint FingerprintMatrix(const Matrix& data) {
  KdeDataFingerprint fp;
  fp.rows = data.rows();
  fp.cols = data.cols();
  // Two FNV-1a streams with distinct offset bases; the second also folds
  // the element index in, so the streams stay independent.
  uint64_t h1 = 14695981039346656037ull;
  uint64_t h2 = 0x9e3779b97f4a7c15ull;
  const std::vector<double>& flat = data.data();
  for (size_t i = 0; i < flat.size(); ++i) {
    uint64_t bits = DoubleBits(flat[i]);
    h1 = FnvMix(h1, bits);
    h2 = FnvMix(h2, bits ^ (static_cast<uint64_t>(i) * kFnvPrime));
  }
  fp.h1 = FnvMix(h1, (static_cast<uint64_t>(fp.rows) << 32) ^ fp.cols);
  fp.h2 = FnvMix(h2, (static_cast<uint64_t>(fp.cols) << 32) ^ fp.rows);
  return fp;
}

bool KdeCache::Key::operator<(const Key& o) const {
  return std::tie(data, bandwidth_rule, atol, leaf_size, backend) <
         std::tie(o.data, o.bandwidth_rule, o.atol, o.leaf_size, o.backend);
}

KdeCache::Key KdeCache::MakeKey(const KdeDataFingerprint& fp,
                                const KdeOptions& options) {
  Key key;
  key.data = fp;
  key.bandwidth_rule = static_cast<int>(options.bandwidth_rule);
  key.atol = options.approximation_atol;
  key.leaf_size = options.leaf_size;
  key.backend = static_cast<int>(options.tree_backend);
  return key;
}

KdeDataFingerprint KdeCache::ResolveFingerprint(const Matrix& data,
                                                const KdeCacheHint& hint) {
  if (hint.dataset_version == 0) return FingerprintMatrix(data);
  auto memo_key =
      std::make_tuple(hint.dataset_version, hint.space, hint.slot);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = fingerprint_memo_.find(memo_key);
    if (it != fingerprint_memo_.end()) {
      ++fingerprint_memo_hits_;
      return it->second;
    }
    ++fingerprint_memo_misses_;
  }
  // Hash outside the lock; versions are never reused, so a racing insert
  // of the same memo key writes the identical fingerprint.
  KdeDataFingerprint fp = FingerprintMatrix(data);
  std::lock_guard<std::mutex> lock(mu_);
  if (fingerprint_memo_.size() >= kFingerprintMemoCapacity) {
    fingerprint_memo_.clear();
  }
  fingerprint_memo_[memo_key] = fp;
  return fp;
}

Result<std::shared_ptr<const KernelDensity>> KdeCache::FitOrGet(
    const Matrix& data, const KdeOptions& options, const KdeCacheHint& hint) {
  Key key = MakeKey(ResolveFingerprint(data, hint), options);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);  // mark hottest
      return it->second.kde;
    }
    ++misses_;
  }
  // Fit outside the lock: misses on different cells run concurrently.
  Result<KernelDensity> fitted = KernelDensity::Fit(data, options);
  if (!fitted.ok()) return fitted.status();
  auto kde = std::make_shared<const KernelDensity>(std::move(fitted).value());
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // A racing miss inserted the identical fit first; keep it.
    return it->second.kde;
  }
  size_t bytes = kde->ApproxMemoryBytes();
  lru_.push_front(key);
  entries_[key] = Entry{kde, bytes, lru_.begin()};
  resident_bytes_ += bytes;
  EvictIfOverBoundsLocked();
  return kde;
}

void KdeCache::EvictIfOverBoundsLocked() {
  while ((entries_.size() > capacity_ || resident_bytes_ > max_bytes_) &&
         !lru_.empty()) {
    auto it = entries_.find(lru_.back());
    if (it != entries_.end()) {
      // Exact accounting: each entry's insertion-time byte count is what
      // was added to resident_bytes_, so subtracting it back is always
      // in range. (A saturating subtract here once masked drift between
      // fitted and loaded estimators' ApproxMemoryBytes — the two now
      // report identically, and kde_flat_test pins full eviction at 0.)
      resident_bytes_ -= it->second.bytes;
      entries_.erase(it);
    }
    lru_.pop_back();
    ++evictions_;
  }
}

void KdeCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  fingerprint_memo_.clear();
  resident_bytes_ = 0;
}

void KdeCache::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
  fingerprint_memo_hits_ = 0;
  fingerprint_memo_misses_ = 0;
}

KdeCache::Stats KdeCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = entries_.size();
  s.resident_bytes = resident_bytes_;
  s.fingerprint_memo_hits = fingerprint_memo_hits_;
  s.fingerprint_memo_misses = fingerprint_memo_misses_;
  return s;
}

void KdeCache::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  EvictIfOverBoundsLocked();
}

void KdeCache::set_max_bytes(size_t max_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  max_bytes_ = max_bytes;
  EvictIfOverBoundsLocked();
}

KdeCache& GlobalKdeCache() {
  static KdeCache* cache = new KdeCache();
  return *cache;
}

Result<std::shared_ptr<const KernelDensity>> FitThroughCache(
    const Matrix& data, const KdeOptions& options, const KdeCacheHint& hint) {
  if (options.use_fit_cache) {
    return GlobalKdeCache().FitOrGet(data, options, hint);
  }
  Result<KernelDensity> fitted = KernelDensity::Fit(data, options);
  if (!fitted.ok()) return fitted.status();
  return std::make_shared<const KernelDensity>(std::move(fitted).value());
}

}  // namespace fairdrift
