#include "util/binary_io.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>

#include "util/fault.h"
#include "util/string_util.h"

namespace fairdrift {
namespace {

// Every format here is little-endian; a little-endian host can move
// whole arrays and hash words with plain loads and memcpy.
constexpr bool kLittleEndianHost =
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__;

uint64_t LoadU64Le(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (!kLittleEndianHost) v = __builtin_bswap64(v);
  return v;
}

uint32_t LoadU32Le(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (!kLittleEndianHost) v = __builtin_bswap32(v);
  return v;
}

}  // namespace

void BinaryWriter::WriteU32(uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  buffer_.append(bytes, 4);
}

void BinaryWriter::WriteU64(uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  buffer_.append(bytes, 8);
}

void BinaryWriter::WriteDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double is not 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  buffer_.append(s);
}

void BinaryWriter::WriteDoubleVector(const std::vector<double>& v) {
  WriteU64(v.size());
  if constexpr (kLittleEndianHost) {
    // The host's doubles already are the wire's little-endian bits.
    if (!v.empty()) {
      buffer_.append(reinterpret_cast<const char*>(v.data()),
                     v.size() * sizeof(double));
    }
  } else {
    for (double x : v) WriteDouble(x);
  }
}

void BinaryWriter::WriteU64Vector(const std::vector<size_t>& v) {
  WriteU64(v.size());
  for (size_t x : v) WriteU64(static_cast<uint64_t>(x));
}

void BinaryWriter::WriteI32Vector(const std::vector<int32_t>& v) {
  WriteU64(v.size());
  for (int32_t x : v) WriteI32(x);
}

Result<const char*> BinaryReader::Take(size_t n) {
  if (n > size_ - pos_) {
    return Status::DataLoss(
        StrFormat("binary payload truncated: need %zu bytes at offset %zu, "
                  "have %zu",
                  n, pos_, size_ - pos_));
  }
  const char* p = data_ + pos_;
  pos_ += n;
  return p;
}

Result<uint8_t> BinaryReader::ReadU8() {
  Result<const char*> p = Take(1);
  if (!p.ok()) return p.status();
  return static_cast<uint8_t>((*p.value()));
}

Result<uint32_t> BinaryReader::ReadU32() {
  Result<const char*> p = Take(4);
  if (!p.ok()) return p.status();
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p.value()[i]))
         << (8 * i);
  }
  return v;
}

Result<uint64_t> BinaryReader::ReadU64() {
  Result<const char*> p = Take(8);
  if (!p.ok()) return p.status();
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p.value()[i]))
         << (8 * i);
  }
  return v;
}

Result<int32_t> BinaryReader::ReadI32() {
  Result<uint32_t> v = ReadU32();
  if (!v.ok()) return v.status();
  return static_cast<int32_t>(v.value());
}

Result<double> BinaryReader::ReadDouble() {
  Result<uint64_t> bits = ReadU64();
  if (!bits.ok()) return bits.status();
  double v;
  uint64_t b = bits.value();
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

Result<std::string> BinaryReader::ReadString() {
  Result<uint64_t> len = ReadU64();
  if (!len.ok()) return len.status();
  Result<const char*> p = Take(len.value());
  if (!p.ok()) return p.status();
  return std::string(p.value(), len.value());
}

Result<std::vector<double>> BinaryReader::ReadDoubleVector() {
  Result<uint64_t> len = ReadU64();
  if (!len.ok()) return len.status();
  // Divide instead of multiplying: a hostile length must not overflow
  // past the guard into a gigantic vector allocation.
  if (len.value() > remaining() / 8) {
    return Status::DataLoss(
        StrFormat("binary payload truncated: vector claims %llu entries",
                  static_cast<unsigned long long>(len.value())));
  }
  if constexpr (kLittleEndianHost) {
    Result<const char*> bytes = Take(len.value() * sizeof(double));
    if (!bytes.ok()) return bytes.status();
    std::vector<double> v(len.value());
    if (!v.empty()) {
      std::memcpy(v.data(), bytes.value(), v.size() * sizeof(double));
    }
    return v;
  } else {
    std::vector<double> v(len.value());
    for (double& x : v) {
      Result<double> r = ReadDouble();
      if (!r.ok()) return r.status();
      x = r.value();
    }
    return v;
  }
}

Result<std::vector<size_t>> BinaryReader::ReadU64Vector() {
  Result<uint64_t> len = ReadU64();
  if (!len.ok()) return len.status();
  if (len.value() > remaining() / 8) {
    return Status::DataLoss(
        StrFormat("binary payload truncated: vector claims %llu entries",
                  static_cast<unsigned long long>(len.value())));
  }
  std::vector<size_t> v(len.value());
  for (size_t& x : v) {
    Result<uint64_t> r = ReadU64();
    if (!r.ok()) return r.status();
    x = static_cast<size_t>(r.value());
  }
  return v;
}

Result<std::vector<int32_t>> BinaryReader::ReadI32Vector() {
  Result<uint64_t> len = ReadU64();
  if (!len.ok()) return len.status();
  if (len.value() > remaining() / 4) {
    return Status::DataLoss(
        StrFormat("binary payload truncated: vector claims %llu entries",
                  static_cast<unsigned long long>(len.value())));
  }
  std::vector<int32_t> v(len.value());
  for (int32_t& x : v) {
    Result<int32_t> r = ReadI32();
    if (!r.ok()) return r.status();
    x = r.value();
  }
  return v;
}

uint64_t Fnv1aHash(const char* data, size_t size) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

constexpr uint64_t kXxhPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kXxhPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kXxhPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kXxhPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kXxhPrime5 = 0x27D4EB2F165667C5ull;

uint64_t Rotl64(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

uint64_t XxhRound(uint64_t acc, uint64_t input) {
  acc += input * kXxhPrime2;
  acc = Rotl64(acc, 31);
  return acc * kXxhPrime1;
}

uint64_t XxhMergeRound(uint64_t acc, uint64_t val) {
  acc ^= XxhRound(0, val);
  return acc * kXxhPrime1 + kXxhPrime4;
}

// One 32-byte stripe through the four lanes.
void XxhStripe(uint64_t acc[4], const char* p) {
  acc[0] = XxhRound(acc[0], LoadU64Le(p));
  acc[1] = XxhRound(acc[1], LoadU64Le(p + 8));
  acc[2] = XxhRound(acc[2], LoadU64Le(p + 16));
  acc[3] = XxhRound(acc[3], LoadU64Le(p + 24));
}

}  // namespace

Xxh64::Xxh64()
    : acc_{kXxhPrime1 + kXxhPrime2, kXxhPrime2, 0, 0 - kXxhPrime1} {}

void Xxh64::Update(const char* data, size_t size) {
  total_ += size;
  if (buffered_ + size < sizeof(stripe_)) {
    if (size > 0) std::memcpy(stripe_ + buffered_, data, size);
    buffered_ += size;
    return;
  }
  const char* p = data;
  const char* const end = data + size;
  if (buffered_ > 0) {
    const size_t fill = sizeof(stripe_) - buffered_;
    std::memcpy(stripe_ + buffered_, p, fill);
    XxhStripe(acc_, stripe_);
    p += fill;
    buffered_ = 0;
  }
  for (; end - p >= 32; p += 32) XxhStripe(acc_, p);
  buffered_ = static_cast<size_t>(end - p);
  if (buffered_ > 0) std::memcpy(stripe_, p, buffered_);
}

uint64_t Xxh64::Digest() const {
  uint64_t h;
  if (total_ >= 32) {
    h = Rotl64(acc_[0], 1) + Rotl64(acc_[1], 7) + Rotl64(acc_[2], 12) +
        Rotl64(acc_[3], 18);
    for (uint64_t lane : acc_) h = XxhMergeRound(h, lane);
  } else {
    h = kXxhPrime5;  // seed 0 + prime 5
  }
  h += total_;
  const char* p = stripe_;
  size_t left = buffered_;
  for (; left >= 8; p += 8, left -= 8) {
    h ^= XxhRound(0, LoadU64Le(p));
    h = Rotl64(h, 27) * kXxhPrime1 + kXxhPrime4;
  }
  if (left >= 4) {
    h ^= static_cast<uint64_t>(LoadU32Le(p)) * kXxhPrime1;
    h = Rotl64(h, 23) * kXxhPrime2 + kXxhPrime3;
    p += 4;
    left -= 4;
  }
  for (; left > 0; ++p, --left) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(*p)) * kXxhPrime5;
    h = Rotl64(h, 11) * kXxhPrime1;
  }
  h ^= h >> 33;
  h *= kXxhPrime2;
  h ^= h >> 29;
  h *= kXxhPrime3;
  h ^= h >> 32;
  return h;
}

uint64_t Xxh64Hash(const char* data, size_t size) {
  Xxh64 hash;
  hash.Update(data, size);
  return hash.Digest();
}

Status WriteFileBytes(const std::string& path, const std::string& payload) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  size_t written = std::fwrite(payload.data(), 1, payload.size(), f);
  int close_err = std::fclose(f);
  if (written != payload.size() || close_err != 0) {
    return Status::IoError("short write to '" + path + "'");
  }
  return Status::OK();
}

Status WriteFileBytesAtomic(const std::string& path,
                            const std::string& payload) {
  // The temporary lives in the same directory as the target so the
  // rename never crosses a filesystem boundary (rename(2) atomicity).
  // pid + a process-wide counter keep the name unique across processes
  // AND across concurrent savers inside one process — two threads
  // sharing a tmp name would interleave writes and rename torn bytes
  // into place.
  static std::atomic<uint64_t> tmp_counter{0};
  std::string tmp = StrFormat(
      "%s.tmp.%ld.%llu", path.c_str(), static_cast<long>(::getpid()),
      static_cast<unsigned long long>(
          tmp_counter.fetch_add(1, std::memory_order_relaxed)));
  // Fault sites: a writer that dies (or errors) mid-write must leave
  // only a torn TMP file behind — the rename below is what publishes,
  // so the target stays intact either way. snapshot.save.crash is the
  // crash-during-save smoke: write half, then die like a SIGKILLed
  // trainer.
  if (FAULT_POINT("snapshot.save.crash")) {
    (void)WriteFileBytes(tmp, payload.substr(0, payload.size() / 2));
    _exit(42);
  }
  if (FAULT_POINT("snapshot.save.partial")) {
    (void)WriteFileBytes(tmp, payload.substr(0, payload.size() / 2));
    std::remove(tmp.c_str());
    return Status::IoError("short write to '" + tmp +
                           "' (injected fault: snapshot.save.partial)");
  }
  Status written = WriteFileBytes(tmp, payload);
  if (!written.ok()) {
    // Don't strand a partial temp file (each call uses a fresh name, so
    // leaks would accumulate — e.g. periodic saves retrying on ENOSPC).
    std::remove(tmp.c_str());
    return written;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename '" + tmp + "' over '" + path + "'");
  }
  return Status::OK();
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  std::string out;
  char chunk[1 << 16];
  size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    out.append(chunk, got);
  }
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::IoError("read error on '" + path + "'");
  return out;
}

}  // namespace fairdrift
