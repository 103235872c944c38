#include "serve/net/shard_daemon.h"

#include <utility>

#include "serve/net/wire.h"
#include "serve/trace/metrics_registry.h"
#include "serve/trace/trace_context.h"
#include "util/fault.h"
#include "util/timer.h"

namespace fairdrift {
namespace net {

Result<std::unique_ptr<ShardDaemon>> ShardDaemon::Start(
    std::shared_ptr<const ModelSnapshot> snapshot,
    const ShardDaemonOptions& options) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("ShardDaemon: null snapshot");
  }
  std::unique_ptr<ShardDaemon> daemon(new ShardDaemon());
  daemon->options_ = options;

  // A trace log path turns the wrapped server into a tracing server:
  // the daemon owns the sink (destroyed after the server), stamps the
  // wire stages itself, and emits whole-span records after the reply
  // serializes (defer_emit).
  if (!options.trace_log_path.empty()) {
    TraceLogOptions log_options;
    log_options.rotate_bytes = options.trace_rotate_bytes;
    Result<std::unique_ptr<TraceLog>> log =
        TraceLog::Open(options.trace_log_path, log_options);
    if (!log.ok()) return log.status();
    daemon->trace_log_ = std::move(log).value();
    daemon->options_.server.trace.enabled = true;
    daemon->options_.server.trace.sample_modulus =
        options.trace_sample_modulus;
    daemon->options_.server.trace.sink = daemon->trace_log_.get();
    daemon->options_.server.trace.role = "shard";
    daemon->options_.server.trace.defer_emit = true;
  }

  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot, daemon->options_.server);
  if (!server.ok()) return server.status();
  daemon->server_ = std::move(server).value();

  // Seed the chunk store from the snapshot we serve, so the very first
  // push already diffs against real content: a pusher whose snapshot
  // shares four of five chunks with ours sends one chunk, not five.
  Result<ChunkedSnapshot> chunked = ChunkSnapshot(*snapshot);
  if (!chunked.ok()) return chunked.status();
  daemon->current_manifest_ = chunked.value().manifest;
  for (SnapshotPayloadChunk& chunk : chunked.value().chunks) {
    daemon->current_chunks_[chunk.name] = std::move(chunk.bytes);
  }

  ShardDaemon* raw = daemon.get();
  Result<std::unique_ptr<FrameServer>> frames = FrameServer::Start(
      options.host, options.port, options.io_timeout,
      [raw](const Frame& frame) { return raw->HandleFrame(frame); });
  if (!frames.ok()) return frames.status();
  daemon->frames_ = std::move(frames).value();
  return daemon;
}

ShardDaemon::~ShardDaemon() { Stop(); }

void ShardDaemon::Stop() {
  std::call_once(stop_once_, [this] {
    if (frames_) frames_->Stop();
    if (server_) server_->Stop();
  });
}

ShardDaemon::Counters ShardDaemon::counters() const {
  Counters c;
  {
    std::lock_guard<std::mutex> lock(counter_mu_);
    c = counters_;
  }
  static_cast<FrameServer::Counters&>(c) = frames_->counters();
  return c;
}

Frame ShardDaemon::HandleFrame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kScoreBatch:
      return HandleScoreBatch(frame);
    case FrameType::kHealthProbe: {
      WireHealthProbe probe;
      probe.completed = server_->stats().completed;
      probe.queue_depth = server_->queue_depth();
      probe.inflight_batches = server_->inflight_batches();
      probe.snapshot_version = server_->CurrentSnapshot()->version();
      BinaryWriter w;
      SerializeHealthProbe(probe, &w);
      return Frame{FrameType::kHealthProbeReply, std::move(w).TakeBuffer()};
    }
    case FrameType::kStatsSnapshot: {
      BinaryWriter w;
      SerializeStatsView(server_->stats(), &w);
      return Frame{FrameType::kStatsSnapshotReply,
                   std::move(w).TakeBuffer()};
    }
    case FrameType::kMetrics:
      return HandleMetrics();
    case FrameType::kPushManifest:
      return HandlePushManifest(frame);
    case FrameType::kPushChunk:
      return HandlePushChunk(frame);
    case FrameType::kPushCommit:
      return HandlePushCommit();
    case FrameType::kPushRevert:
      return HandlePushRevert();
    default:
      return ErrorFrame(Status::InvalidArgument(
          std::string("shard daemon cannot serve frame type ") +
          FrameTypeName(frame.type)));
  }
}

Frame ShardDaemon::HandleScoreBatch(const Frame& frame) {
  // Stamped before deserialization so the wire_recv span covers decode.
  const uint64_t wire_recv_ns =
      options_.server.trace.enabled ? MonotonicNowNs() : 0;
  BinaryReader r(frame.payload);
  Result<WireScoreRequest> request = DeserializeScoreRequest(&r);
  if (!request.ok()) return ErrorFrame(request.status());
  WireScoreRequest& req = request.value();
  const size_t count = req.count();

  // Every sampled row in this frame parents under the sender's span id
  // from the frame's trace extension (per-row trace ids re-mint from
  // row content at admission, so the extension only carries linkage).
  SubmitTraceInfo trace;
  trace.parent_span_id = frame.has_trace ? frame.trace.parent_span_id : 0;
  trace.wire_recv_ns = wire_recv_ns;

  // The frame is one admission unit: admitted or shed whole, scored in
  // one batch when it fits max_batch_size, and waited on once. Shed and
  // invalid rows still carry their typed code per row: one bad row must
  // not poison its batch-mates.
  std::vector<WireRowOutcome> outcomes(count);
  ScoreTicket ticket;
  if (count != 0) {
    Result<ScoreTicket> submitted = server_->Submit(
        std::move(req.rows), req.width, RequestAuditInfo{}, trace,
        req.deadline());
    if (submitted.ok()) {
      ticket = std::move(submitted).value();
    } else {
      for (WireRowOutcome& outcome : outcomes) {
        outcome.code = submitted.status().code();
        outcome.message = submitted.status().message();
      }
    }
  }
  for (size_t i = 0; i < ticket.size(); ++i) {
    Result<ScoreResult> result = ticket.Wait(i);
    if (result.ok()) {
      outcomes[i].result = result.value();
    } else {
      outcomes[i].code = result.status().code();
      outcomes[i].message = result.status().message();
    }
  }
  BinaryWriter w;
  SerializeRowOutcomes(outcomes, &w);
  Frame reply{FrameType::kScoreBatchReply, std::move(w).TakeBuffer()};
  if (trace_log_ != nullptr) {
    // Emission is deferred to here so wire_send (reply serialized,
    // about to hit the socket) closes each sampled row's span. Wait()
    // above ordered these slot reads after the scoring threads' writes.
    const uint64_t wire_send_ns = MonotonicNowNs();
    for (size_t i = 0; i < ticket.size(); ++i) {
      TraceSpanSlot* slot = ticket.trace_slot(i);
      if (!slot->sampled()) continue;
      slot->StampAt(TraceStage::kWireSend, wire_send_ns);
      server_->EmitTrace(ticket, i);
    }
  }
  return reply;
}

Frame ShardDaemon::HandleMetrics() {
  // The server's stats view in the shared fairdrift_* family set, then
  // the daemon's wire counters and point-in-time serving gauges.
  std::string text;
  MetricsEmitter out(&text);
  EmitStatsViewMetrics(server_->stats(), &out);
  Counters wire = counters();
  out.Counter("fairdrift_net_connections_accepted_total",
              "TCP connections accepted", wire.connections_accepted);
  out.Counter("fairdrift_net_frames_served_total", "Request frames answered",
              wire.frames_served);
  out.Counter("fairdrift_net_frame_errors_total", "Error frames sent to peers",
              wire.frame_errors);
  out.Counter("fairdrift_net_push_commits_total", "Snapshot pushes committed",
              wire.push_commits);
  out.Counter("fairdrift_net_push_reverts_total", "Snapshot pushes reverted",
              wire.push_reverts);
  out.Gauge("fairdrift_queue_depth", "Admitted requests awaiting a batch",
            static_cast<double>(server_->queue_depth()));
  out.Gauge("fairdrift_snapshot_version",
            "Model snapshot version serving new batches",
            static_cast<double>(server_->CurrentSnapshot()->version()));
  if (trace_log_ != nullptr) {
    out.Counter("fairdrift_trace_log_records_total",
                "Whole-span records appended to the trace log",
                trace_log_->records());
  }
  return Frame{FrameType::kMetricsReply, std::move(text)};
}

Frame ShardDaemon::HandlePushManifest(const Frame& frame) {
  BinaryReader r(frame.payload);
  Result<SnapshotManifest> manifest = DeserializeManifest(&r);
  if (!manifest.ok()) return ErrorFrame(manifest.status());

  std::lock_guard<std::mutex> lock(push_mu_);
  pending_manifest_ = std::move(manifest).value();
  pending_chunks_.clear();
  pending_valid_ = true;

  // Reply with the names of the chunks we cannot reuse — a chunk whose
  // bytes we already hold (same name, size, and checksum) never travels.
  std::vector<std::string> needed;
  for (const SnapshotChunkInfo& info : pending_manifest_.chunks) {
    auto held = current_chunks_.find(info.name);
    bool reusable = held != current_chunks_.end() &&
                    held->second.size() == info.size &&
                    Fnv1aHash(held->second.data(), held->second.size()) ==
                        info.checksum;
    if (!reusable) needed.push_back(info.name);
  }
  BinaryWriter w;
  w.WriteU64(needed.size());
  for (const std::string& name : needed) w.WriteString(name);
  return Frame{FrameType::kPushManifestReply, std::move(w).TakeBuffer()};
}

Frame ShardDaemon::HandlePushChunk(const Frame& frame) {
  BinaryReader r(frame.payload);
  Result<std::string> name = r.ReadString();
  if (!name.ok()) return ErrorFrame(name.status());
  Result<std::string> bytes = r.ReadString();
  if (!bytes.ok()) return ErrorFrame(bytes.status());

  std::lock_guard<std::mutex> lock(push_mu_);
  if (!pending_valid_) {
    return ErrorFrame(Status::FailedPrecondition(
        "push chunk without a pending manifest (send kPushManifest first)"));
  }
  size_t index = pending_manifest_.FindChunk(name.value());
  if (index == static_cast<size_t>(-1)) {
    return ErrorFrame(Status::InvalidArgument(
        "pushed chunk '" + name.value() + "' is not in the pending manifest"));
  }
  const SnapshotChunkInfo& info = pending_manifest_.chunks[index];
  if (FAULT_POINT_ARG("net.push.chunk", static_cast<uint64_t>(index)) ||
      bytes.value().size() != info.size ||
      Fnv1aHash(bytes.value().data(), bytes.value().size()) != info.checksum) {
    return ErrorFrame(Status::DataLoss(
        "pushed chunk '" + name.value() +
        "' does not match its manifest entry (size or checksum)"));
  }
  pending_chunks_[info.name] = std::move(bytes).value();
  {
    std::lock_guard<std::mutex> counters(counter_mu_);
    ++counters_.push_chunks_received;
  }
  return Frame{FrameType::kPushChunkReply, std::string()};
}

Frame ShardDaemon::HandlePushCommit() {
  std::lock_guard<std::mutex> lock(push_mu_);
  if (!pending_valid_) {
    return ErrorFrame(Status::FailedPrecondition(
        "push commit without a pending manifest"));
  }
  // Assemble the full payload: staged chunks where the pusher sent new
  // bytes, our held chunks where the manifest said they were unchanged.
  std::vector<SnapshotPayloadChunk> chunks;
  chunks.reserve(pending_manifest_.chunks.size());
  for (const SnapshotChunkInfo& info : pending_manifest_.chunks) {
    auto staged = pending_chunks_.find(info.name);
    if (staged != pending_chunks_.end()) {
      chunks.push_back({info.name, staged->second});
      continue;
    }
    auto held = current_chunks_.find(info.name);
    if (held == current_chunks_.end()) {
      return ErrorFrame(Status::FailedPrecondition(
          "chunk '" + info.name +
          "' was neither pushed nor already held; cannot commit"));
    }
    chunks.push_back({info.name, held->second});
  }
  Result<std::string> payload = AssemblePayload(pending_manifest_, chunks);
  if (!payload.ok()) return ErrorFrame(payload.status());

  SnapshotLoadReport report;
  Result<std::shared_ptr<const ModelSnapshot>> parsed = ParseSnapshotPayload(
      pending_manifest_.snapshot_format_version, payload.value().data(),
      payload.value().size(), options_.push_load_mode, &report,
      "pushed snapshot");
  if (!parsed.ok()) return ErrorFrame(parsed.status());

  // Keep a one-deep revert history, then swap. In-flight batches finish
  // on the snapshot they grabbed — the swap drops nothing.
  previous_snapshot_ = server_->CurrentSnapshot();
  previous_manifest_ = current_manifest_;
  previous_chunks_ = current_chunks_;
  Status swapped = server_->UpdateSnapshot(parsed.value());
  if (!swapped.ok()) return ErrorFrame(swapped);

  current_manifest_ = pending_manifest_;
  current_chunks_.clear();
  for (SnapshotPayloadChunk& chunk : chunks) {
    current_chunks_[chunk.name] = std::move(chunk.bytes);
  }
  pending_valid_ = false;
  pending_chunks_.clear();

  std::string note = report.degraded_note;
  if (!options_.state_dir.empty()) {
    Status persisted = SaveChunkedSnapshot(*parsed.value(),
                                           options_.state_dir);
    if (!persisted.ok()) {
      // The swap already happened and serving is correct; surface the
      // persistence problem to the pusher instead of unwinding it.
      if (!note.empty()) note += "; ";
      note += "state persist failed: " + persisted.message();
    }
  }
  {
    std::lock_guard<std::mutex> counters(counter_mu_);
    ++counters_.push_commits;
  }
  BinaryWriter w;
  w.WriteU64(parsed.value()->version());
  w.WriteU8(report.outcome == SnapshotLoadReport::Outcome::kDegraded ? 1 : 0);
  w.WriteString(note);
  return Frame{FrameType::kPushCommitReply, std::move(w).TakeBuffer()};
}

Frame ShardDaemon::HandlePushRevert() {
  std::lock_guard<std::mutex> lock(push_mu_);
  pending_valid_ = false;
  pending_chunks_.clear();
  if (previous_snapshot_ == nullptr) {
    return ErrorFrame(Status::FailedPrecondition(
        "no committed push to revert"));
  }
  Status swapped = server_->UpdateSnapshot(previous_snapshot_);
  if (!swapped.ok()) return ErrorFrame(swapped);
  current_manifest_ = previous_manifest_;
  current_chunks_ = previous_chunks_;
  uint64_t version = previous_snapshot_->version();
  previous_snapshot_.reset();
  previous_chunks_.clear();
  if (!options_.state_dir.empty()) {
    // Best effort: a revert that cannot persist still serves correctly.
    std::shared_ptr<const ModelSnapshot> current = server_->CurrentSnapshot();
    (void)SaveChunkedSnapshot(*current, options_.state_dir);
  }
  {
    std::lock_guard<std::mutex> counters(counter_mu_);
    ++counters_.push_reverts;
  }
  BinaryWriter w;
  w.WriteU64(version);
  return Frame{FrameType::kPushRevertReply, std::move(w).TakeBuffer()};
}

}  // namespace net
}  // namespace fairdrift
