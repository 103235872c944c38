#include "serve/net/remote_fleet.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <thread>
#include <utility>

#include "serve/trace/trace_context.h"

namespace fairdrift {
namespace net {

Status ParseHostPort(const std::string& address, std::string* host,
                     uint16_t* port) {
  size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= address.size()) {
    return Status::InvalidArgument("address '" + address +
                                   "' is not host:port");
  }
  char* end = nullptr;
  unsigned long parsed = std::strtoul(address.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || parsed == 0 || parsed > 65535) {
    return Status::InvalidArgument("address '" + address +
                                   "' has an invalid port");
  }
  *host = address.substr(0, colon);
  *port = static_cast<uint16_t>(parsed);
  return Status::OK();
}

RemoteShardClient::RemoteShardClient(std::string host, uint16_t port,
                                     std::chrono::milliseconds io_timeout)
    : host_(std::move(host)), port_(port), io_timeout_(io_timeout) {}

void RemoteShardClient::Disconnect() {
  std::lock_guard<std::mutex> lock(mu_);
  conn_.Close();
  connected_ = false;
}

Result<Frame> RemoteShardClient::Call(FrameType request,
                                      const std::string& payload,
                                      FrameType expected_reply,
                                      const FrameTraceContext* trace) {
  std::lock_guard<std::mutex> lock(mu_);
  bool reconnected = false;
  for (;;) {
    if (!connected_) {
      Result<TcpConnection> conn =
          TcpConnection::Connect(host_, port_, io_timeout_);
      if (!conn.ok()) return conn.status();
      conn_ = std::move(conn).value();
      connected_ = true;
      reconnected = true;
    }
    Status sent =
        trace != nullptr
            ? WriteTracedFrame(conn_, request, payload, *trace, io_timeout_)
            : WriteFrame(conn_, request, payload, io_timeout_);
    if (!sent.ok()) {
      conn_.Close();
      connected_ = false;
      // A send failure on a REUSED connection usually just means the
      // daemon restarted since the last call and the cached socket is
      // stale; the request never arrived, so retrying on a fresh
      // connection is safe (including for non-idempotent push frames).
      // On a fresh connection the failure is real.
      if (!reconnected && sent.code() == StatusCode::kUnavailable) continue;
      return sent;
    }
    Result<Frame> reply = ReadFrame(conn_, io_timeout_);
    if (!reply.ok()) {
      // The request may have been acted on; surfacing the transport
      // error (instead of silently retrying a possibly-committed push)
      // is the caller's signal to probe/eject.
      conn_.Close();
      connected_ = false;
      return reply.status();
    }
    Status expected = ExpectFrame(reply.value(), expected_reply);
    if (!expected.ok()) {
      if (reply.value().type != FrameType::kError) {
        // Unexpected reply type: the stream is desynchronized.
        conn_.Close();
        connected_ = false;
      }
      return expected;
    }
    return reply;
  }
}

Result<std::vector<WireRowOutcome>> RemoteShardClient::ScoreBatch(
    const WireScoreRequest& request, const FrameTraceContext* trace) {
  BinaryWriter w;
  SerializeScoreRequest(request, &w);
  Result<Frame> reply = Call(FrameType::kScoreBatch,
                             std::move(w).TakeBuffer(),
                             FrameType::kScoreBatchReply, trace);
  if (!reply.ok()) return reply.status();
  BinaryReader r(reply.value().payload);
  return DeserializeRowOutcomes(&r);
}

Result<WireHealthProbe> RemoteShardClient::Probe() {
  Result<Frame> reply = Call(FrameType::kHealthProbe, std::string(),
                             FrameType::kHealthProbeReply);
  if (!reply.ok()) return reply.status();
  BinaryReader r(reply.value().payload);
  return DeserializeHealthProbe(&r);
}

Result<ServerStats::View> RemoteShardClient::Stats() {
  Result<Frame> reply = Call(FrameType::kStatsSnapshot, std::string(),
                             FrameType::kStatsSnapshotReply);
  if (!reply.ok()) return reply.status();
  BinaryReader r(reply.value().payload);
  return DeserializeStatsView(&r);
}

Result<std::string> RemoteShardClient::Metrics() {
  Result<Frame> reply = Call(FrameType::kMetrics, std::string(),
                             FrameType::kMetricsReply);
  if (!reply.ok()) return reply.status();
  return std::move(reply.value().payload);
}

Result<std::vector<std::string>> RemoteShardClient::PushManifest(
    const SnapshotManifest& manifest) {
  BinaryWriter w;
  SerializeManifest(manifest, &w);
  Result<Frame> reply = Call(FrameType::kPushManifest,
                             std::move(w).TakeBuffer(),
                             FrameType::kPushManifestReply);
  if (!reply.ok()) return reply.status();
  BinaryReader r(reply.value().payload);
  Result<uint64_t> count = r.ReadU64();
  if (!count.ok()) return count.status();
  if (count.value() > 1024) {
    return Status::DataLoss("manifest reply claims an implausible count");
  }
  std::vector<std::string> needed;
  needed.reserve(count.value());
  for (uint64_t i = 0; i < count.value(); ++i) {
    Result<std::string> name = r.ReadString();
    if (!name.ok()) return name.status();
    needed.push_back(std::move(name).value());
  }
  return needed;
}

Status RemoteShardClient::PushChunk(const std::string& name,
                                    const std::string& bytes) {
  BinaryWriter w;
  w.WriteString(name);
  w.WriteString(bytes);
  Result<Frame> reply = Call(FrameType::kPushChunk, std::move(w).TakeBuffer(),
                             FrameType::kPushChunkReply);
  return reply.ok() ? Status::OK() : reply.status();
}

Result<RemoteShardClient::CommitReply> RemoteShardClient::PushCommit() {
  Result<Frame> reply = Call(FrameType::kPushCommit, std::string(),
                             FrameType::kPushCommitReply);
  if (!reply.ok()) return reply.status();
  BinaryReader r(reply.value().payload);
  CommitReply out;
  Result<uint64_t> version = r.ReadU64();
  if (!version.ok()) return version.status();
  out.snapshot_version = version.value();
  Result<uint8_t> degraded = r.ReadU8();
  if (!degraded.ok()) return degraded.status();
  out.degraded = degraded.value() != 0;
  Result<std::string> note = r.ReadString();
  if (!note.ok()) return note.status();
  out.note = std::move(note).value();
  return out;
}

Result<RemoteShardClient::PushReply> RemoteShardClient::Push(
    const ChunkedSnapshot& chunked) {
  Result<std::vector<std::string>> needed = PushManifest(chunked.manifest);
  if (!needed.ok()) return needed.status();
  PushReply out;
  for (const std::string& name : needed.value()) {
    auto chunk = std::find_if(
        chunked.chunks.begin(), chunked.chunks.end(),
        [&name](const SnapshotPayloadChunk& c) { return c.name == name; });
    if (chunk == chunked.chunks.end()) {
      return Status::DataLoss("receiver requested chunk '" + name +
                              "' which is not in the push set");
    }
    FAIRDRIFT_RETURN_IF_ERROR(PushChunk(chunk->name, chunk->bytes));
    ++out.chunks_sent;
    out.bytes_sent += chunk->bytes.size();
  }
  Result<CommitReply> commit = PushCommit();
  if (!commit.ok()) return commit.status();
  static_cast<CommitReply&>(out) = std::move(commit).value();
  return out;
}

Result<uint64_t> RemoteShardClient::PushRevert() {
  Result<Frame> reply = Call(FrameType::kPushRevert, std::string(),
                             FrameType::kPushRevertReply);
  if (!reply.ok()) return reply.status();
  BinaryReader r(reply.value().payload);
  return r.ReadU64();
}

RemoteFleet::RemoteFleet(
    const RemoteFleetOptions& options,
    std::vector<std::unique_ptr<RemoteShardClient>> clients)
    : options_(options),
      clients_(std::move(clients)),
      router_(options.routing, clients_.size()),
      shards_(clients_.size()),
      last_load_(std::make_unique<std::atomic<size_t>[]>(clients_.size())),
      probe_states_(clients_.size()) {}

Result<std::unique_ptr<RemoteFleet>> RemoteFleet::Connect(
    const std::vector<std::string>& addresses,
    const RemoteFleetOptions& options) {
  if (addresses.empty()) {
    return Status::InvalidArgument("RemoteFleet: no shard addresses");
  }
  std::vector<std::unique_ptr<RemoteShardClient>> clients;
  for (const std::string& address : addresses) {
    std::string host;
    uint16_t port = 0;
    FAIRDRIFT_RETURN_IF_ERROR(ParseHostPort(address, &host, &port));
    clients.push_back(std::make_unique<RemoteShardClient>(
        std::move(host), port, options.io_timeout));
  }
  const size_t n = clients.size();
  std::unique_ptr<RemoteFleet> fleet(
      new RemoteFleet(options, std::move(clients)));
  // Fail fast on a misconfigured fleet: every daemon must answer a
  // probe now. This also seeds the stalled-detection baselines.
  for (size_t s = 0; s < n; ++s) {
    Result<WireHealthProbe> probe = fleet->clients_[s]->Probe();
    if (!probe.ok()) {
      return Status::Unavailable("shard " + std::to_string(s) + " (" +
                                 addresses[s] + "): " +
                                 probe.status().message());
    }
    fleet->probe_states_[s].last_completed = probe.value().completed;
    fleet->probe_states_[s].have_baseline = true;
    fleet->probe_states_[s].last_version = probe.value().snapshot_version;
    fleet->last_load_[s].store(probe.value().queue_depth +
                               probe.value().inflight_batches);
  }
  if (options.start_prober) {
    RemoteFleet* raw = fleet.get();
    fleet->probe_thread_ = std::thread([raw] { raw->ProbeLoop(); });
  }
  return fleet;
}

RemoteFleet::~RemoteFleet() { Stop(); }

void RemoteFleet::Stop() {
  std::call_once(stop_once_, [this] {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_requested_ = true;
    }
    stop_cv_.notify_all();
    if (probe_thread_.joinable()) probe_thread_.join();
    for (auto& client : clients_) client->Disconnect();
  });
}

void RemoteFleet::ProbeLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    if (stop_cv_.wait_for(lock, options_.probe_interval,
                          [this] { return stop_requested_; })) {
      break;
    }
    lock.unlock();
    ProbeOnce();
    lock.lock();
  }
}

void RemoteFleet::ProbeOnce() {
  ShardHealthFsm::Limits limits;
  limits.dead_after_stalled_probes = options_.dead_after_stalled_probes;
  limits.readmit_after_healthy_probes = options_.readmit_after_healthy_probes;
  for (size_t s = 0; s < clients_.size(); ++s) {
    // RPC outside mu_ so a slow daemon never blocks Stop() or a
    // concurrent ProbeOnce caller's state fold for long.
    Result<WireHealthProbe> probe = clients_[s]->Probe();
    ShardHealthFsm::Verdict verdict;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ProbeState& state = probe_states_[s];
      bool stalled;
      if (probe.ok()) {
        // A dead daemon is unreachable, so a probe answer from a kDead
        // shard means the operator restarted the process. There is no
        // explicit RestartShard call across machines — observing the
        // restart is how the remote lifecycle reenters kRecovering.
        if (state.fsm.health() == ShardHealth::kDead) {
          state.fsm.NoteRestarted();
        }
        const WireHealthProbe& p = probe.value();
        bool progressed =
            !state.have_baseline || p.completed != state.last_completed;
        bool pending = p.queue_depth > 0 || p.inflight_batches > 0;
        stalled = pending && !progressed;
        state.last_completed = p.completed;
        state.have_baseline = true;
        state.last_version = p.snapshot_version;
        last_load_[s].store(p.queue_depth + p.inflight_batches,
                            std::memory_order_relaxed);
      } else {
        // Unreachable IS stalled: the remote twin of a wedged dispatcher.
        stalled = true;
        state.have_baseline = false;
      }
      verdict = state.fsm.Observe(stalled, false, shards_.ejected(s), limits);
    }
    if (verdict.eject) (void)EjectShard(s);
    if (verdict.readmit) (void)ReadmitShard(s);
  }
}

Result<std::vector<WireRowOutcome>> RemoteFleet::ScoreBatch(
    const std::vector<double>& rows, size_t width,
    std::chrono::nanoseconds deadline) {
  if (width == 0 || rows.size() % width != 0) {
    return Status::InvalidArgument(
        "ScoreBatch: rows are not a whole number of rows of `width`");
  }
  const size_t count = rows.size() / width;
  std::vector<WireRowOutcome> outcomes(count);
  std::vector<size_t> pending(count);
  for (size_t i = 0; i < count; ++i) pending[i] = i;

  // Round 0 routes normally; a shard whose RPC fails is ejected and its
  // rows re-picked among the survivors in round 1 (the rendezvous hash
  // reassigns them deterministically). A round-1 failure is final.
  for (int round = 0; round < 2 && !pending.empty(); ++round) {
    std::map<size_t, std::vector<size_t>> by_shard;
    for (size_t idx : pending) {
      by_shard[router_.Pick(&rows[idx * width], width, *this)].push_back(idx);
    }
    std::vector<size_t> failed;
    for (auto& entry : by_shard) {
      const size_t shard = entry.first;
      const std::vector<size_t>& idxs = entry.second;
      WireScoreRequest request;
      request.width = width;
      request.deadline_ns = static_cast<uint64_t>(
          deadline.count() > 0 ? deadline.count() : 0);
      request.rows.reserve(idxs.size() * width);
      for (size_t idx : idxs) {
        request.rows.insert(request.rows.end(), rows.begin() + idx * width,
                            rows.begin() + (idx + 1) * width);
      }
      // The extension carries tier linkage only: trace_id stays 0 (each
      // sampled row's id re-mints from row content at the daemon), the
      // parent is the router's constant tier span.
      FrameTraceContext trace;
      trace.parent_span_id = TraceSpanId(0, "router");
      Result<std::vector<WireRowOutcome>> reply =
          clients_[shard]->ScoreBatch(request, &trace);
      if (reply.ok() && reply.value().size() == idxs.size()) {
        for (size_t i = 0; i < idxs.size(); ++i) {
          outcomes[idxs[i]] = std::move(reply.value()[i]);
        }
        continue;
      }
      Status error = reply.ok()
                         ? Status::DataLoss(
                               "score reply row count does not match request")
                         : reply.status();
      // Shed the shard now rather than waiting for the prober: the next
      // Pick must already see it unavailable.
      (void)EjectShard(shard);
      if (round == 0) {
        failed.insert(failed.end(), idxs.begin(), idxs.end());
      } else {
        for (size_t idx : idxs) {
          outcomes[idx].code = error.code();
          outcomes[idx].message = error.message();
        }
      }
    }
    pending.swap(failed);
  }
  return outcomes;
}

Result<ScoreResult> RemoteFleet::Score(const std::vector<double>& row,
                                       std::chrono::nanoseconds deadline) {
  Result<std::vector<WireRowOutcome>> outcomes =
      ScoreBatch(row, row.size(), deadline);
  if (!outcomes.ok()) return outcomes.status();
  const WireRowOutcome& outcome = outcomes.value().front();
  if (outcome.code != StatusCode::kOk) {
    return Status(outcome.code, outcome.message);
  }
  return outcome.result;
}

Result<RollingUpdateReport> RemoteFleet::PushRolling(
    const ChunkedSnapshot& chunked, const RollingUpdateOptions& options) {
  RolloutTarget target;
  target.swap = [&](size_t s, uint64_t* version) {
    Result<RemoteShardClient::PushReply> pushed = clients_[s]->Push(chunked);
    if (!pushed.ok()) return pushed.status();
    *version = pushed.value().snapshot_version;
    return Status::OK();
  };
  target.revert = [this](size_t s) {
    return clients_[s]->PushRevert().status();
  };
  return rollouts_.Run(target, options);
}

FleetStatsView RemoteFleet::stats() const {
  const size_t n = clients_.size();
  FleetStatsView view;
  view.num_shards = n;
  view.queue_depths.resize(n);
  view.shard_outlier_rates.assign(n, 0.0);
  view.shard_completed.assign(n, 0);
  view.shard_versions.assign(n, 0);
  view.audit.shard_alert_active.assign(n, 0);
  view.audit.shard_windows.assign(n, 0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t s = 0; s < n; ++s) {
      view.shard_versions[s] = probe_states_[s].last_version;
    }
  }
  for (size_t s = 0; s < n; ++s) {
    view.queue_depths[s] = last_load_[s].load(std::memory_order_relaxed);
    Result<ServerStats::View> remote = clients_[s]->Stats();
    if (!remote.ok()) continue;  // unreachable shard contributes nothing
    const ServerStats::View& sv = remote.value();
    view.MergeFrom(sv);
    view.shard_completed[s] = sv.completed;
    view.shard_outlier_rates[s] = OutlierRate(sv);
    // Audit tallies ride the same wire view; a shard with any audit
    // activity marks the fleet view enabled.
    if (sv.audit_windows > 0 || sv.audit_alert_active ||
        sv.audit_has_metrics) {
      view.audit.enabled = true;
    }
    view.audit.windows += sv.audit_windows;
    view.audit.breaches += sv.audit_breaches;
    view.audit.alerts_raised += sv.audit_alerts_raised;
    view.audit.shard_windows[s] = sv.audit_windows;
    if (sv.audit_alert_active) {
      view.audit.shard_alert_active[s] = 1;
      ++view.audit.shards_alerting;
    }
  }
  view.DeriveFleetSignals(shards_);
  return view;
}

}  // namespace net
}  // namespace fairdrift
