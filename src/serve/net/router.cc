#include "serve/net/router.h"

#include <utility>

#include "serve/net/wire.h"
#include "serve/trace/metrics_registry.h"
#include "util/binary_io.h"

namespace fairdrift {
namespace net {

Result<std::unique_ptr<Router>> Router::Start(
    const std::vector<std::string>& addresses,
    const RemoteFleetOptions& options, const std::string& host,
    uint16_t port) {
  std::unique_ptr<Router> router(new Router());
  Result<std::unique_ptr<RemoteFleet>> fleet =
      RemoteFleet::Connect(addresses, options);
  if (!fleet.ok()) return fleet.status();
  router->fleet_ = std::move(fleet).value();
  Router* raw = router.get();
  Result<std::unique_ptr<FrameServer>> frames = FrameServer::Start(
      host, port, options.io_timeout,
      [raw](const Frame& frame) { return raw->HandleFrame(frame); });
  if (!frames.ok()) return frames.status();
  router->frames_ = std::move(frames).value();
  return router;
}

Router::~Router() { Stop(); }

void Router::Stop() {
  std::call_once(stop_once_, [this] {
    if (frames_) frames_->Stop();
    if (fleet_) fleet_->Stop();
  });
}

Frame Router::HandleFrame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kScoreBatch: {
      BinaryReader r(frame.payload);
      Result<WireScoreRequest> request = DeserializeScoreRequest(&r);
      if (!request.ok()) return ErrorFrame(request.status());
      Result<std::vector<WireRowOutcome>> outcomes = fleet_->ScoreBatch(
          request.value().rows, request.value().width,
          request.value().deadline());
      if (!outcomes.ok()) return ErrorFrame(outcomes.status());
      BinaryWriter w;
      SerializeRowOutcomes(outcomes.value(), &w);
      return Frame{FrameType::kScoreBatchReply, std::move(w).TakeBuffer()};
    }
    case FrameType::kHealthProbe: {
      // The fold of one live probe per daemon: progress, depth and
      // in-flight batches add up, and the version is the lowest any
      // daemon serves. An unreachable daemon contributes nothing.
      WireHealthProbe probe;
      bool any = false;
      for (size_t s = 0; s < fleet_->num_shards(); ++s) {
        Result<WireHealthProbe> daemon = fleet_->shard_client(s)->Probe();
        if (!daemon.ok()) continue;
        probe.completed += daemon->completed;
        probe.queue_depth += daemon->queue_depth;
        probe.inflight_batches += daemon->inflight_batches;
        if (!any || daemon->snapshot_version < probe.snapshot_version) {
          probe.snapshot_version = daemon->snapshot_version;
        }
        any = true;
      }
      BinaryWriter w;
      SerializeHealthProbe(probe, &w);
      return Frame{FrameType::kHealthProbeReply, std::move(w).TakeBuffer()};
    }
    case FrameType::kStatsSnapshot: {
      BinaryWriter w;
      SerializeStatsView(fleet_->stats(), &w);
      return Frame{FrameType::kStatsSnapshotReply,
                   std::move(w).TakeBuffer()};
    }
    case FrameType::kMetrics: {
      std::string text;
      MetricsEmitter out(&text);
      FleetStatsView fv = fleet_->stats();
      EmitStatsViewMetrics(fv, &out);
      out.Counter("fairdrift_router_ejections_total",
                  "Shards ejected from routing", fv.ejections);
      out.Counter("fairdrift_router_readmissions_total",
                  "Ejected shards returned to routing", fv.readmissions);
      out.Counter("fairdrift_router_rolling_updates_total",
                  "Rolling pushes relayed", fv.rolling_updates);
      out.Counter("fairdrift_router_rollbacks_total",
                  "Rolling pushes rolled back", fv.rollbacks);
      out.Gauge("fairdrift_router_shards", "Shard daemons behind this router",
                static_cast<double>(fv.num_shards));
      return Frame{FrameType::kMetricsReply, std::move(text)};
    }
    case FrameType::kPushManifest:
      return HandlePushManifest(frame);
    case FrameType::kPushChunk:
      return HandlePushChunk(frame);
    case FrameType::kPushCommit:
      return HandlePushCommit();
    default:
      return ErrorFrame(Status::InvalidArgument(
          std::string("router cannot serve frame type ") +
          FrameTypeName(frame.type)));
  }
}

Frame Router::HandlePushManifest(const Frame& frame) {
  BinaryReader r(frame.payload);
  Result<SnapshotManifest> manifest = DeserializeManifest(&r);
  if (!manifest.ok()) return ErrorFrame(manifest.status());
  std::lock_guard<std::mutex> lock(push_mu_);
  push_manifest_ = std::move(manifest).value();
  push_chunks_.clear();
  push_valid_ = true;
  BinaryWriter w;
  w.WriteU64(push_manifest_.chunks.size());
  for (const SnapshotChunkInfo& info : push_manifest_.chunks) {
    w.WriteString(info.name);
  }
  return Frame{FrameType::kPushManifestReply, std::move(w).TakeBuffer()};
}

Frame Router::HandlePushChunk(const Frame& frame) {
  BinaryReader r(frame.payload);
  Result<std::string> name = r.ReadString();
  if (!name.ok()) return ErrorFrame(name.status());
  Result<std::string> bytes = r.ReadString();
  if (!bytes.ok()) return ErrorFrame(bytes.status());
  std::lock_guard<std::mutex> lock(push_mu_);
  if (!push_valid_) {
    return ErrorFrame(Status::FailedPrecondition(
        "push chunk without a pending manifest"));
  }
  size_t index = push_manifest_.FindChunk(name.value());
  if (index == static_cast<size_t>(-1)) {
    return ErrorFrame(Status::InvalidArgument(
        "chunk '" + name.value() + "' is not in the pending manifest"));
  }
  const SnapshotChunkInfo& info = push_manifest_.chunks[index];
  if (bytes.value().size() != info.size ||
      Fnv1aHash(bytes.value().data(), bytes.value().size()) !=
          info.checksum) {
    return ErrorFrame(Status::DataLoss(
        "chunk '" + name.value() + "' does not match its manifest entry"));
  }
  push_chunks_[info.name] = std::move(bytes).value();
  return Frame{FrameType::kPushChunkReply, std::string()};
}

Frame Router::HandlePushCommit() {
  ChunkedSnapshot chunked;
  {
    std::lock_guard<std::mutex> lock(push_mu_);
    if (!push_valid_) {
      return ErrorFrame(Status::FailedPrecondition(
          "push commit without a pending manifest"));
    }
    chunked.manifest = push_manifest_;
    for (const SnapshotChunkInfo& info : push_manifest_.chunks) {
      auto staged = push_chunks_.find(info.name);
      if (staged == push_chunks_.end()) {
        return ErrorFrame(Status::FailedPrecondition(
            "chunk '" + info.name + "' was never pushed"));
      }
      chunked.chunks.push_back({info.name, staged->second});
    }
    push_valid_ = false;
    push_chunks_.clear();
  }
  Result<RollingUpdateReport> rolled = fleet_->PushRolling(chunked);
  if (!rolled.ok()) return ErrorFrame(rolled.status());
  if (rolled.value().state == RolloutState::kRolledBack) {
    return ErrorFrame(Status::Unavailable("rolling push rolled back: " +
                                          rolled.value().failure));
  }
  // Every daemon stamps its own process-local version; report the lowest
  // so the pusher sees the slowest shard's floor.
  uint64_t version = 0;
  for (const ShardRolloutReport& shard : rolled.value().shards) {
    if (version == 0 || shard.version < version) version = shard.version;
  }
  BinaryWriter w;
  w.WriteU64(version);
  w.WriteU8(0);
  w.WriteString(std::string());
  return Frame{FrameType::kPushCommitReply, std::move(w).TakeBuffer()};
}

}  // namespace net
}  // namespace fairdrift
