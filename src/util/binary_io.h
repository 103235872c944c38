// Bounds-checked binary (de)serialization primitives.
//
// The versioned on-disk artifacts (snapshot files, see
// serve/snapshot_io.h) are built from fixed-width little-endian scalars:
// doubles travel as their IEEE-754 bit patterns, so a value read back is
// *bitwise identical* to the value written — the property the snapshot
// determinism contract extends across process boundaries.
//
// BinaryWriter appends to an in-memory buffer (the caller frames and
// writes the file); BinaryReader walks a byte span and fails with a typed
// Status::DataLoss on any out-of-bounds read, so truncated or corrupted
// payloads surface as errors instead of undefined behavior.

#ifndef FAIRDRIFT_UTIL_BINARY_IO_H_
#define FAIRDRIFT_UTIL_BINARY_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace fairdrift {

/// Append-only little-endian byte sink.
class BinaryWriter {
 public:
  void WriteU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI32(int32_t v) { WriteU32(static_cast<uint32_t>(v)); }
  /// Raw IEEE-754 bits; NaNs and signed zeros round-trip exactly.
  void WriteDouble(double v);
  /// u64 length followed by the bytes.
  void WriteString(const std::string& s);
  /// u64 length followed by each element as WriteDouble writes it; a
  /// little-endian host appends the whole array with one copy.
  void WriteDoubleVector(const std::vector<double>& v);
  /// u64 length followed by the elements (size_t travels as u64).
  void WriteU64Vector(const std::vector<size_t>& v);
  void WriteI32Vector(const std::vector<int32_t>& v);

  const std::string& buffer() const { return buffer_; }
  /// Moves the accumulated bytes out (rvalue-only; avoids copying large
  /// payloads when handing the buffer to a frame or file writer).
  std::string TakeBuffer() && { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Forward-only little-endian byte source over a borrowed buffer.
class BinaryReader {
 public:
  /// `data` must outlive the reader.
  BinaryReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit BinaryReader(const std::string& data)
      : BinaryReader(data.data(), data.size()) {}

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int32_t> ReadI32();
  Result<double> ReadDouble();
  Result<std::string> ReadString();
  /// A length the remaining bytes cannot hold fails with DataLoss before
  /// the vector is allocated.
  Result<std::vector<double>> ReadDoubleVector();
  Result<std::vector<size_t>> ReadU64Vector();
  Result<std::vector<int32_t>> ReadI32Vector();

  /// Bytes not yet consumed.
  size_t remaining() const { return size_ - pos_; }

 private:
  /// Advances past `n` bytes, failing with DataLoss when fewer remain.
  Result<const char*> Take(size_t n);

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Two hashes, each fixed by what depends on it:
//   - Fnv1aHash: byte-serial, an order of magnitude slower than Xxh64,
//     but persisted or output-fixing everywhere it runs: snapshot,
//     manifest and chunk checksums, the audit and trace chains
//     (Fnv1aChain), sampled-monitor row selection and trace-id minting.
//     Changing it would change files on disk or which rows a replay
//     samples.
//   - Xxh64: the frame trailer checksum (net/frame.h) and kHashRow shard
//     routing (serve/fleet/fleet.h), where nothing is persisted and the
//     bytes hashed per request make speed matter.

/// FNV-1a over a byte buffer; the snapshot files carry it as a trailing
/// integrity check so random corruption is detected, not mis-parsed.
uint64_t Fnv1aHash(const char* data, size_t size);

/// XXH64 with seed 0, the public xxHash 64-bit algorithm (digests match
/// the reference library's XXH64(data, size, 0)), fed incrementally:
/// any split of the same bytes across Update calls gives the same
/// Digest. Reads 8-byte words little-endian, so a digest is the same on
/// every host and at every alignment.
class Xxh64 {
 public:
  Xxh64();
  void Update(const char* data, size_t size);
  /// The digest of every byte passed to Update so far; the state is not
  /// consumed, so more bytes may follow.
  uint64_t Digest() const;

 private:
  uint64_t acc_[4];
  uint64_t total_ = 0;
  /// Bytes of an incomplete 32-byte stripe carried to the next Update.
  char stripe_[32] = {};
  size_t buffered_ = 0;
};

/// One-shot Xxh64 over a byte buffer.
uint64_t Xxh64Hash(const char* data, size_t size);

/// Writes `payload` to `path` directly (a crash mid-write leaves a
/// partial file, which readers catch via the checksum).
Status WriteFileBytes(const std::string& path, const std::string& payload);

/// Writes `payload` to `<path>.tmp.<pid>` and renames it over `path`.
/// rename(2) is atomic on POSIX, so a concurrent reader (the snapshot
/// hot-reload watcher) observes either the previous complete file or the
/// new complete file — never a partially written one.
Status WriteFileBytesAtomic(const std::string& path,
                            const std::string& payload);

/// Reads the whole file at `path`.
Result<std::string> ReadFileBytes(const std::string& path);

}  // namespace fairdrift

#endif  // FAIRDRIFT_UTIL_BINARY_IO_H_
