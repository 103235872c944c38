#include "serve/snapshot_manifest.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cstring>
#include <limits>
#include <string_view>
#include <utility>

#include "util/string_util.h"

namespace fairdrift {
namespace {

constexpr char kManifestMagic[8] = {'F', 'D', 'S', 'N', 'M', 'A', 'N', 'I'};

// The core chunks scores depend on; everything after them is the
// monitor tail kAllowPartial may sacrifice.
constexpr size_t kNumCoreChunks = 3;  // schema, models, profile

std::string ChunkPath(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".chunk";
}

std::string ManifestPath(const std::string& dir) {
  return dir + "/" + kSnapshotManifestFileName;
}

bool ChunkMatches(std::string_view bytes, const SnapshotChunkInfo& info) {
  return bytes.size() == info.size &&
         Fnv1aHash(bytes.data(), bytes.size()) == info.checksum;
}

// Joins verified chunk bytes, sized by the bytes themselves.
template <typename Part>
std::string Concatenate(const std::vector<Part>& parts) {
  size_t total = 0;
  for (const Part& part : parts) total += part.size();
  std::string out;
  out.reserve(total);
  for (const Part& part : parts) out.append(part);
  return out;
}

}  // namespace

size_t SnapshotManifest::FindChunk(const std::string& name) const {
  for (size_t i = 0; i < chunks.size(); ++i) {
    if (chunks[i].name == name) return i;
  }
  return static_cast<size_t>(-1);
}

Result<ChunkedSnapshot> ChunkSnapshot(const ModelSnapshot& snapshot) {
  ChunkedSnapshot out;
  Status st = SerializeSnapshotPayloadChunks(snapshot, &out.chunks);
  if (!st.ok()) return st;
  out.manifest.snapshot_format_version = kSnapshotFormatVersion;
  std::string payload;
  for (const SnapshotPayloadChunk& chunk : out.chunks) {
    SnapshotChunkInfo info;
    info.name = chunk.name;
    info.size = chunk.bytes.size();
    info.checksum = Fnv1aHash(chunk.bytes.data(), chunk.bytes.size());
    out.manifest.chunks.push_back(std::move(info));
    out.manifest.payload_size += chunk.bytes.size();
    payload.append(chunk.bytes);
  }
  out.manifest.payload_checksum = Fnv1aHash(payload.data(), payload.size());
  return out;
}

void SerializeManifest(const SnapshotManifest& manifest, BinaryWriter* w) {
  w->WriteU32(manifest.snapshot_format_version);
  w->WriteU64(manifest.payload_size);
  w->WriteU64(manifest.payload_checksum);
  w->WriteU64(manifest.chunks.size());
  for (const SnapshotChunkInfo& chunk : manifest.chunks) {
    w->WriteString(chunk.name);
    w->WriteU64(chunk.size);
    w->WriteU64(chunk.checksum);
  }
}

Result<SnapshotManifest> DeserializeManifest(BinaryReader* r) {
  SnapshotManifest manifest;
  Result<uint32_t> format = r->ReadU32();
  if (!format.ok()) return format.status();
  manifest.snapshot_format_version = format.value();
  Result<uint64_t> payload_size = r->ReadU64();
  if (!payload_size.ok()) return payload_size.status();
  manifest.payload_size = payload_size.value();
  Result<uint64_t> payload_checksum = r->ReadU64();
  if (!payload_checksum.ok()) return payload_checksum.status();
  manifest.payload_checksum = payload_checksum.value();
  Result<uint64_t> count = r->ReadU64();
  if (!count.ok()) return count.status();
  if (count.value() > 1024) {
    return Status::DataLoss(
        "snapshot manifest claims an implausible chunk count");
  }
  uint64_t total = 0;
  for (uint64_t i = 0; i < count.value(); ++i) {
    SnapshotChunkInfo info;
    Result<std::string> name = r->ReadString();
    if (!name.ok()) return name.status();
    info.name = std::move(name).value();
    if (info.name.empty() ||
        info.name.find_first_not_of(
            "abcdefghijklmnopqrstuvwxyz0123456789_-") != std::string::npos) {
      // Chunk names become file names under the state dir; reject
      // anything that could escape it (slashes, dots, ...).
      return Status::DataLoss(StrFormat(
          "snapshot manifest chunk %llu has an invalid name",
          static_cast<unsigned long long>(i)));
    }
    Result<uint64_t> size = r->ReadU64();
    if (!size.ok()) return size.status();
    info.size = size.value();
    Result<uint64_t> checksum = r->ReadU64();
    if (!checksum.ok()) return checksum.status();
    info.checksum = checksum.value();
    if (info.size > std::numeric_limits<uint64_t>::max() - total) {
      return Status::DataLoss("snapshot manifest chunk sizes overflow");
    }
    total += info.size;
    manifest.chunks.push_back(std::move(info));
  }
  if (total != manifest.payload_size) {
    return Status::DataLoss(
        "snapshot manifest chunk sizes disagree with the payload size");
  }
  return manifest;
}

Status SaveChunkedSnapshot(const ModelSnapshot& snapshot,
                           const std::string& dir,
                           std::vector<std::string>* written_chunks) {
  if (written_chunks != nullptr) written_chunks->clear();
  Result<ChunkedSnapshot> chunked = ChunkSnapshot(snapshot);
  if (!chunked.ok()) return chunked.status();
  ::mkdir(dir.c_str(), 0755);  // best-effort; the writes below report errors
  // Incremental: trust the previous manifest's checksums (each file was
  // written atomically under it) and only rewrite changed chunks.
  SnapshotManifest previous;
  Result<SnapshotManifest> prev = LoadSnapshotManifest(dir);
  if (prev.ok()) previous = std::move(prev).value();
  for (size_t i = 0; i < chunked.value().chunks.size(); ++i) {
    const SnapshotPayloadChunk& chunk = chunked.value().chunks[i];
    const SnapshotChunkInfo& info = chunked.value().manifest.chunks[i];
    size_t prev_idx = previous.FindChunk(info.name);
    if (prev_idx != static_cast<size_t>(-1) &&
        previous.chunks[prev_idx].checksum == info.checksum &&
        previous.chunks[prev_idx].size == info.size) {
      continue;
    }
    Status st = WriteFileBytesAtomic(ChunkPath(dir, info.name), chunk.bytes);
    if (!st.ok()) return st;
    if (written_chunks != nullptr) written_chunks->push_back(info.name);
  }
  BinaryWriter body;
  SerializeManifest(chunked.value().manifest, &body);
  std::string out;
  out.append(kManifestMagic, sizeof(kManifestMagic));
  BinaryWriter header;
  header.WriteU32(kSnapshotManifestVersion);
  header.WriteU64(body.buffer().size());
  out.append(header.buffer());
  out.append(body.buffer());
  BinaryWriter checksum;
  checksum.WriteU64(Fnv1aHash(body.buffer().data(), body.buffer().size()));
  out.append(checksum.buffer());
  // The manifest lands last. A crash after a chunk rename but before
  // this one leaves the OLD manifest pointing at a NEW chunk file; the
  // per-chunk checksum check in LoadChunkedSnapshot catches that as
  // kDataLoss instead of serving a frankensnapshot.
  return WriteFileBytesAtomic(ManifestPath(dir), out);
}

Result<SnapshotManifest> LoadSnapshotManifest(const std::string& dir) {
  Result<std::string> bytes = ReadFileBytes(ManifestPath(dir));
  if (!bytes.ok()) return bytes.status();
  const std::string& file = bytes.value();
  if (file.size() < sizeof(kManifestMagic) + 12 + 8 ||
      std::memcmp(file.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return Status::DataLoss("'" + dir + "' has no valid snapshot manifest");
  }
  BinaryReader header(file.data() + sizeof(kManifestMagic),
                      file.size() - sizeof(kManifestMagic));
  Result<uint32_t> version = header.ReadU32();
  if (!version.ok()) return version.status();
  if (version.value() != kSnapshotManifestVersion) {
    return Status::DataLoss(StrFormat(
        "'%s' has manifest version %u; this build reads version %u",
        dir.c_str(), version.value(), kSnapshotManifestVersion));
  }
  Result<uint64_t> body_size = header.ReadU64();
  if (!body_size.ok()) return body_size.status();
  if (header.remaining() < 8 || body_size.value() != header.remaining() - 8) {
    return Status::DataLoss("'" + dir + "' has a truncated snapshot manifest");
  }
  const char* body = file.data() + sizeof(kManifestMagic) + 12;
  BinaryReader trailer(body + body_size.value(), 8);
  Result<uint64_t> stored = trailer.ReadU64();
  if (!stored.ok()) return stored.status();
  if (Fnv1aHash(body, body_size.value()) != stored.value()) {
    return Status::DataLoss("'" + dir +
                            "' snapshot manifest failed its integrity check");
  }
  BinaryReader r(body, body_size.value());
  Result<SnapshotManifest> manifest = DeserializeManifest(&r);
  if (!manifest.ok()) return manifest.status();
  if (r.remaining() != 0) {
    return Status::DataLoss("'" + dir +
                            "' snapshot manifest carries trailing bytes");
  }
  return manifest;
}

Result<std::shared_ptr<const ModelSnapshot>> LoadChunkedSnapshot(
    const std::string& dir, SnapshotLoadMode mode,
    SnapshotLoadReport* report) {
  if (report == nullptr) {
    return Status::InvalidArgument("LoadChunkedSnapshot: null report");
  }
  *report = SnapshotLoadReport{};
  Result<SnapshotManifest> manifest_or = LoadSnapshotManifest(dir);
  if (!manifest_or.ok()) return manifest_or.status();
  const SnapshotManifest& manifest = manifest_or.value();
  if (manifest.chunks.size() < kNumCoreChunks) {
    return Status::DataLoss("'" + dir +
                            "' snapshot manifest lacks the core chunks");
  }
  // Every chunk is read and verified before the payload is sized: the
  // manifest's sizes are claims until the chunk files back them.
  std::vector<std::string> parts;
  bool truncated = false;
  std::string truncated_note;
  for (size_t i = 0; i < manifest.chunks.size(); ++i) {
    const SnapshotChunkInfo& info = manifest.chunks[i];
    Result<std::string> bytes = ReadFileBytes(ChunkPath(dir, info.name));
    Status st = bytes.status();
    if (st.ok() && !ChunkMatches(bytes.value(), info)) {
      st = Status::DataLoss(StrFormat("chunk '%s' in '%s' failed its integrity "
                                      "check",
                                      info.name.c_str(), dir.c_str()));
    }
    if (!st.ok()) {
      if (i < kNumCoreChunks || mode == SnapshotLoadMode::kStrict) return st;
      // An optional (monitor-tail) chunk is damaged: stop assembling here
      // and let the shared payload parser degrade, exactly as it does for
      // a corrupt monolithic tail.
      truncated = true;
      truncated_note = st.message();
      break;
    }
    parts.push_back(std::move(bytes).value());
  }
  std::string payload = Concatenate(parts);
  if (!truncated &&
      Fnv1aHash(payload.data(), payload.size()) != manifest.payload_checksum) {
    return Status::DataLoss("'" + dir +
                            "' assembled payload failed its integrity check");
  }
  Result<std::shared_ptr<const ModelSnapshot>> snapshot = ParseSnapshotPayload(
      manifest.snapshot_format_version, payload.data(), payload.size(), mode,
      report, dir);
  if (snapshot.ok() && truncated &&
      report->outcome == SnapshotLoadReport::Outcome::kDegraded &&
      !truncated_note.empty()) {
    report->degraded_note = StrFormat(
        "monitor sections dropped (%s); serving with density monitoring "
        "disabled",
        truncated_note.c_str());
  }
  return snapshot;
}

Result<std::string> AssemblePayload(
    const SnapshotManifest& manifest,
    const std::vector<SnapshotPayloadChunk>& chunks) {
  // Every chunk is found and verified before the payload is sized: a
  // pushed manifest's sizes are claims until the bytes in hand match.
  std::vector<std::string_view> parts;
  parts.reserve(manifest.chunks.size());
  for (const SnapshotChunkInfo& info : manifest.chunks) {
    const SnapshotPayloadChunk* found = nullptr;
    for (const SnapshotPayloadChunk& chunk : chunks) {
      if (chunk.name == info.name) {
        found = &chunk;
        break;
      }
    }
    if (found == nullptr) {
      return Status::FailedPrecondition(StrFormat(
          "snapshot assembly is missing chunk '%s'", info.name.c_str()));
    }
    if (!ChunkMatches(found->bytes, info)) {
      return Status::DataLoss(StrFormat(
          "chunk '%s' failed its integrity check during assembly",
          info.name.c_str()));
    }
    parts.push_back(found->bytes);
  }
  std::string payload = Concatenate(parts);
  if (Fnv1aHash(payload.data(), payload.size()) != manifest.payload_checksum) {
    return Status::DataLoss(
        "assembled snapshot payload failed its integrity check");
  }
  return payload;
}

}  // namespace fairdrift
