#include "net/frame.h"

#include <cstring>

#include "util/binary_io.h"
#include "util/string_util.h"

namespace fairdrift {
namespace net {
namespace {

constexpr char kFrameMagic[4] = {'F', 'D', 'R', 'P'};
constexpr size_t kHeaderSize = 16;   // magic + version + type + flags + size
constexpr size_t kTrailerSize = 8;   // FrameChecksum
constexpr size_t kTraceExtSize = 16;  // trace id + parent span id

// Byte-wise little-endian decode, mirroring BinaryWriter::WriteU64 --
// never memcpy in host order, so the wire format holds on a big-endian
// peer too.
uint64_t DecodeU64Le(const char* bytes) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[i]))
         << (8 * i);
  }
  return v;
}

uint16_t DecodeU16Le(const char* bytes) {
  return static_cast<uint16_t>(
      static_cast<unsigned char>(bytes[0]) |
      (static_cast<unsigned char>(bytes[1]) << 8));
}

// Shared writer: `trace` null for a plain frame.
Status WriteFrameImpl(TcpConnection& conn, FrameType type,
                      const std::string& payload,
                      const FrameTraceContext* trace,
                      std::chrono::milliseconds timeout) {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(kFrameMagic[0]));
  w.WriteU8(static_cast<uint8_t>(kFrameMagic[1]));
  w.WriteU8(static_cast<uint8_t>(kFrameMagic[2]));
  w.WriteU8(static_cast<uint8_t>(kFrameMagic[3]));
  w.WriteU8(kFrameProtocolVersion);
  w.WriteU8(static_cast<uint8_t>(type));
  uint16_t flags = trace != nullptr ? kFrameFlagTrace : 0;
  w.WriteU8(static_cast<uint8_t>(flags & 0xFF));
  w.WriteU8(static_cast<uint8_t>(flags >> 8));
  w.WriteU64(payload.size());
  if (trace != nullptr) {
    w.WriteU64(trace->trace_id);
    w.WriteU64(trace->parent_span_id);
  }
  std::string buf = std::move(w).TakeBuffer();
  const size_t ext_size = buf.size() - kHeaderSize;
  buf.reserve(buf.size() + payload.size() + kTrailerSize);
  buf.append(payload);
  uint64_t checksum = FrameChecksum(buf.data() + kHeaderSize, ext_size,
                                    payload.data(), payload.size());
  BinaryWriter trailer;
  trailer.WriteU64(checksum);
  buf.append(std::move(trailer).TakeBuffer());
  return conn.SendAll(buf.data(), buf.size(), timeout);
}

}  // namespace

uint64_t FrameChecksum(const char* extension, size_t extension_size,
                       const char* payload, size_t payload_size) {
  Xxh64 hash;
  hash.Update(extension, extension_size);
  hash.Update(payload, payload_size);
  return hash.Digest();
}

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kScoreBatch: return "ScoreBatch";
    case FrameType::kScoreBatchReply: return "ScoreBatchReply";
    case FrameType::kHealthProbe: return "HealthProbe";
    case FrameType::kHealthProbeReply: return "HealthProbeReply";
    case FrameType::kStatsSnapshot: return "StatsSnapshot";
    case FrameType::kStatsSnapshotReply: return "StatsSnapshotReply";
    case FrameType::kPushManifest: return "PushManifest";
    case FrameType::kPushManifestReply: return "PushManifestReply";
    case FrameType::kPushChunk: return "PushChunk";
    case FrameType::kPushChunkReply: return "PushChunkReply";
    case FrameType::kPushCommit: return "PushCommit";
    case FrameType::kPushCommitReply: return "PushCommitReply";
    case FrameType::kPushRevert: return "PushRevert";
    case FrameType::kPushRevertReply: return "PushRevertReply";
    case FrameType::kMetrics: return "Metrics";
    case FrameType::kMetricsReply: return "MetricsReply";
    case FrameType::kError: return "Error";
  }
  return "Unknown";
}

Status WriteFrame(TcpConnection& conn, FrameType type,
                  const std::string& payload,
                  std::chrono::milliseconds timeout) {
  return WriteFrameImpl(conn, type, payload, nullptr, timeout);
}

Status WriteTracedFrame(TcpConnection& conn, FrameType type,
                        const std::string& payload,
                        const FrameTraceContext& trace,
                        std::chrono::milliseconds timeout) {
  return WriteFrameImpl(conn, type, payload, &trace, timeout);
}

Result<Frame> ReadFrame(TcpConnection& conn, std::chrono::milliseconds timeout,
                        uint64_t max_payload) {
  char header[kHeaderSize];
  Status st = conn.RecvAll(header, kHeaderSize, timeout);
  if (!st.ok()) return st;
  if (memcmp(header, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return Status::Unavailable("net: bad frame magic (desynchronized stream)");
  }
  uint8_t version = static_cast<uint8_t>(header[4]);
  if (version != kFrameProtocolVersion) {
    return Status::Unavailable(StrFormat(
        "net: unsupported frame protocol version %u (expected %u)",
        unsigned(version), unsigned(kFrameProtocolVersion)));
  }
  Frame frame;
  frame.type = static_cast<FrameType>(static_cast<uint8_t>(header[5]));
  uint16_t flags = DecodeU16Le(header + 6);
  if ((flags & ~kFrameFlagTrace) != 0) {
    // An unknown flag could imply extension bytes this build cannot
    // size; rejecting beats silently desynchronizing the stream.
    return Status::Unavailable(StrFormat(
        "net: unsupported frame flags %04x", unsigned(flags)));
  }
  uint64_t payload_size = DecodeU64Le(header + 8);
  if (payload_size > max_payload) {
    return Status::DataLoss(StrFormat(
        "net: frame payload size %llu exceeds cap %llu",
        static_cast<unsigned long long>(payload_size),
        static_cast<unsigned long long>(max_payload)));
  }
  char ext[kTraceExtSize] = {};
  if ((flags & kFrameFlagTrace) != 0) {
    st = conn.RecvAll(ext, kTraceExtSize, timeout);
    if (!st.ok()) return st;
    frame.has_trace = true;
    frame.trace.trace_id = DecodeU64Le(ext);
    frame.trace.parent_span_id = DecodeU64Le(ext + 8);
  }
  frame.payload.resize(payload_size);
  if (payload_size > 0) {
    st = conn.RecvAll(&frame.payload[0], payload_size, timeout);
    if (!st.ok()) return st;
  }
  char trailer[kTrailerSize];
  st = conn.RecvAll(trailer, kTrailerSize, timeout);
  if (!st.ok()) return st;
  uint64_t stored = DecodeU64Le(trailer);
  uint64_t actual =
      FrameChecksum(ext, frame.has_trace ? kTraceExtSize : 0,
                    frame.payload.data(), frame.payload.size());
  if (stored != actual) {
    return Status::DataLoss(StrFormat(
        "net: frame checksum mismatch (stored %016llx, computed %016llx)",
        static_cast<unsigned long long>(stored),
        static_cast<unsigned long long>(actual)));
  }
  return frame;
}

Frame ErrorFrame(const Status& error) {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(error.code()));
  w.WriteString(error.message());
  return Frame{FrameType::kError, std::move(w).TakeBuffer()};
}

Status WriteErrorFrame(TcpConnection& conn, const Status& error,
                       std::chrono::milliseconds timeout) {
  return WriteFrame(conn, FrameType::kError, ErrorFrame(error).payload,
                    timeout);
}

Status StatusFromErrorPayload(const std::string& payload) {
  BinaryReader r(payload);
  Result<uint8_t> code = r.ReadU8();
  if (!code.ok()) return Status::DataLoss("net: malformed error frame");
  Result<std::string> message = r.ReadString();
  if (!message.ok()) return Status::DataLoss("net: malformed error frame");
  StatusCode sc = static_cast<StatusCode>(code.value());
  if (sc == StatusCode::kOk) {
    return Status::DataLoss("net: error frame carried StatusCode kOk");
  }
  return Status(sc, StrFormat("remote: %s", message.value().c_str()));
}

Status ExpectFrame(const Frame& frame, FrameType expected) {
  if (frame.type == expected) return Status::OK();
  if (frame.type == FrameType::kError) {
    return StatusFromErrorPayload(frame.payload);
  }
  return Status::DataLoss(StrFormat(
      "net: expected %s frame, got %s", FrameTypeName(expected),
      FrameTypeName(frame.type)));
}

}  // namespace net
}  // namespace fairdrift
