// Wire codecs for the network serving tier: the payloads that ride
// inside net/frame.h frames between the frontend router, shard daemons,
// and clients.
//
// Everything numeric travels as raw little-endian IEEE-754 bits via
// util/binary_io.h, so a ScoreResult deserialized on the router is
// BITWISE identical to the one the shard daemon computed -- the same
// cross-process identity guarantee the snapshot format gives. Every
// decoder returns typed Status errors (kDataLoss on malformed bytes)
// and validates counts before allocating.

#ifndef FAIRDRIFT_SERVE_NET_WIRE_H_
#define FAIRDRIFT_SERVE_NET_WIRE_H_

#include <chrono>
#include <string>
#include <vector>

#include "serve/server_stats.h"
#include "serve/snapshot.h"
#include "util/binary_io.h"
#include "util/status.h"

namespace fairdrift {
namespace net {

/// kScoreBatch request: `count` rows of `width` doubles, row-major, plus
/// a per-request deadline (0 = none) applied by the receiving shard.
struct WireScoreRequest {
  uint64_t width = 0;
  std::vector<double> rows;  ///< count * width doubles
  uint64_t deadline_ns = 0;

  size_t count() const { return width == 0 ? 0 : rows.size() / width; }
  /// deadline_ns as a duration; a value past nanoseconds::max()
  /// saturates to it, which admission reads as no deadline.
  std::chrono::nanoseconds deadline() const {
    return deadline_ns > static_cast<uint64_t>(
                             std::chrono::nanoseconds::max().count())
               ? std::chrono::nanoseconds::max()
               : std::chrono::nanoseconds(
                     static_cast<int64_t>(deadline_ns));
  }
};

void SerializeScoreRequest(const WireScoreRequest& request, BinaryWriter* w);
Result<WireScoreRequest> DeserializeScoreRequest(BinaryReader* r);

/// One row's outcome inside a kScoreBatchReply: the shard-side Status
/// code (kOk = scored; sheds and invalid rows carry their typed code)
/// plus the full ScoreResult when scored.
struct WireRowOutcome {
  StatusCode code = StatusCode::kOk;
  std::string message;  ///< empty on kOk
  ScoreResult result;
};

void SerializeRowOutcomes(const std::vector<WireRowOutcome>& outcomes,
                          BinaryWriter* w);
Result<std::vector<WireRowOutcome>> DeserializeRowOutcomes(BinaryReader* r);

/// kHealthProbeReply: the progress counters the health state machine
/// crosses to decide stalled-ness, plus the served snapshot version.
struct WireHealthProbe {
  uint64_t completed = 0;
  uint64_t queue_depth = 0;
  uint64_t inflight_batches = 0;
  uint64_t snapshot_version = 0;
};

void SerializeHealthProbe(const WireHealthProbe& probe, BinaryWriter* w);
Result<WireHealthProbe> DeserializeHealthProbe(BinaryReader* r);

/// ServerStats::View codec (kStatsSnapshotReply). Round-trips bitwise:
/// every double travels as raw bits, both histograms travel whole with
/// their bucket counts, and the receiver validates those counts before
/// merging (ServerStats::MergeHistogramInto).
void SerializeStatsView(const ServerStats::View& view, BinaryWriter* w);
Result<ServerStats::View> DeserializeStatsView(BinaryReader* r);

}  // namespace net
}  // namespace fairdrift

#endif  // FAIRDRIFT_SERVE_NET_WIRE_H_
