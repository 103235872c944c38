// Length-prefixed binary framing over a TcpConnection.
//
// Wire layout of one frame (all integers little-endian, matching
// util/binary_io.h):
//
//   offset  size  field
//   0       4     magic "FDRP"
//   4       1     protocol version (kFrameProtocolVersion)
//   5       1     frame type (FrameType)
//   6       2     flags (little-endian; 0 for a plain frame)
//   8       8     payload size in bytes (extension NOT included)
//   16      16    [flag 0x1 only] trace extension: trace id + parent
//                 span id, little-endian u64 each
//   ...     n     payload
//   ...     8     FrameChecksum: XXH64 of (extension bytes ++ payload)
//
// Version 1 frames carried an FNV-1a trailer in the same place. The
// version byte is checked before any checksum, so a v1 peer is refused
// with kUnavailable, never misread as corruption (kDataLoss).
//
// The only defined flag (kFrameFlagTrace) adds a fixed 16-byte trace
// extension between header and payload, and a reader that understands
// no flags rejects rather than desynchronizes. Writers only set the
// flag when they have a sampled trace to propagate.
//
// A reply to any request may be the matching *Reply frame or kError,
// whose payload is {u8 StatusCode, string message}; ReadFrame +
// StatusFromFrame turn that back into the same typed Status the remote
// handler produced. Transport-level failures map onto the serving
// tier's existing error taxonomy: connection loss / EOF / bad magic =>
// kUnavailable, deadline => kDeadlineExceeded, checksum or size-cap
// violation => kDataLoss.

#ifndef FAIRDRIFT_NET_FRAME_H_
#define FAIRDRIFT_NET_FRAME_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "net/socket.h"
#include "util/status.h"

namespace fairdrift {
namespace net {

inline constexpr uint8_t kFrameProtocolVersion = 2;

/// Default per-frame payload cap. Snapshot chunks are the largest
/// payloads; 1 GiB bounds a corrupted size field without constraining
/// any real artifact.
inline constexpr uint64_t kMaxFramePayload = 1ull << 30;

enum class FrameType : uint8_t {
  kScoreBatch = 1,        ///< rows -> per-row scores
  kScoreBatchReply = 2,
  kHealthProbe = 3,       ///< liveness + progress counters
  kHealthProbeReply = 4,
  kStatsSnapshot = 5,     ///< wire-serialized ServerStats::View / merge
  kStatsSnapshotReply = 6,
  kPushManifest = 7,      ///< snapshot manifest; reply lists needed chunks
  kPushManifestReply = 8,
  kPushChunk = 9,         ///< one named chunk's bytes
  kPushChunkReply = 10,
  kPushCommit = 11,       ///< assemble + swap the staged snapshot
  kPushCommitReply = 12,
  kPushRevert = 13,       ///< roll back to the pre-push snapshot
  kPushRevertReply = 14,
  kMetrics = 15,          ///< scrape; reply payload is Prometheus text
  kMetricsReply = 16,
  kError = 255,           ///< payload: u8 StatusCode + string message
};

const char* FrameTypeName(FrameType type);

/// Frame flag 0x1: a 16-byte trace extension (trace id + parent span
/// id) follows the header. Carries serve/trace/ context across
/// processes without touching any payload codec.
inline constexpr uint16_t kFrameFlagTrace = 0x1;

/// The trace extension's decoded form (net-layer mirror of
/// serve/trace/ TraceContext, kept separate so net/ stays
/// serving-agnostic).
struct FrameTraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
};

struct Frame {
  Frame() = default;
  Frame(FrameType t, std::string p) : type(t), payload(std::move(p)) {}

  FrameType type = FrameType::kError;
  std::string payload;
  /// True when the frame carried the trace extension.
  bool has_trace = false;
  FrameTraceContext trace;
};

/// The trailer checksum of a frame whose extension (empty on a flagless
/// frame) and payload are these bytes: XXH64 (util/binary_io.h) of the
/// extension followed by the payload, so a flipped extension bit is
/// caught like a flipped payload bit. WriteFrame writes it and ReadFrame
/// verifies it.
uint64_t FrameChecksum(const char* extension, size_t extension_size,
                       const char* payload, size_t payload_size);

/// Writes one frame (header + payload + checksum) as a single buffered
/// send. Typed errors from TcpConnection::SendAll pass through.
Status WriteFrame(TcpConnection& conn, FrameType type,
                  const std::string& payload,
                  std::chrono::milliseconds timeout);

/// Writes one frame carrying the trace extension (kFrameFlagTrace).
Status WriteTracedFrame(TcpConnection& conn, FrameType type,
                        const std::string& payload,
                        const FrameTraceContext& trace,
                        std::chrono::milliseconds timeout);

/// Reads one frame. kUnavailable on connection loss or bad magic /
/// version, kDeadlineExceeded on timeout, kDataLoss on checksum mismatch
/// or a payload size beyond `max_payload`.
Result<Frame> ReadFrame(TcpConnection& conn, std::chrono::milliseconds timeout,
                        uint64_t max_payload = kMaxFramePayload);

/// A kError frame carrying `error`'s code and message.
Frame ErrorFrame(const Status& error);

/// Sends ErrorFrame(error).
Status WriteErrorFrame(TcpConnection& conn, const Status& error,
                       std::chrono::milliseconds timeout);

/// Decodes a kError frame payload back into the original typed Status.
Status StatusFromErrorPayload(const std::string& payload);

/// For a reply frame: OK when `frame` is `expected`; the decoded remote
/// error when it is kError; kDataLoss on any other type.
Status ExpectFrame(const Frame& frame, FrameType expected);

}  // namespace net
}  // namespace fairdrift

#endif  // FAIRDRIFT_NET_FRAME_H_
