#include "serve/server.h"

#include <algorithm>
#include <utility>

#include "serve/audit/auditor.h"
#include "serve/trace/trace_log.h"
#include "util/fault.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace fairdrift {

namespace {

// Runs a batch's loops on the thread that scores it: the dispatcher, or
// the submitting thread of a unit that is its own batch. A 0-worker pool
// keeps no per-call state, so every server and thread can share it.
ThreadPool& InlinePool() {
  static ThreadPool pool(0);
  return pool;
}

}  // namespace

Result<std::unique_ptr<ScoringServer>> ScoringServer::Create(
    std::shared_ptr<const ModelSnapshot> snapshot,
    const ServerOptions& options) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("ScoringServer: null snapshot");
  }
  if (options.admission.max_queue_depth == 0) {
    return Status::InvalidArgument("ScoringServer: zero queue depth");
  }
  return std::unique_ptr<ScoringServer>(
      new ScoringServer(std::move(snapshot), options));
}

ScoringServer::ScoringServer(std::shared_ptr<const ModelSnapshot> snapshot,
                             const ServerOptions& options)
    : options_(options),
      queue_(options.admission.max_queue_depth),
      batcher_(&queue_, options.batching),
      admission_(options.admission),
      pool_(options.pool != nullptr ? options.pool : &GlobalThreadPool()),
      snapshot_(std::move(snapshot)) {
  max_inflight_ = options_.max_inflight_batches != 0
                      ? options_.max_inflight_batches
                      : pool_->num_threads() + 1;
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

ScoringServer::~ScoringServer() { Stop(); }

void ScoringServer::Stop() {
  std::call_once(stop_once_, [this] {
    queue_.Close();
    if (dispatcher_.joinable()) dispatcher_.join();
    // The dispatcher has drained the queue; wait out the batches it
    // already handed to the pool and units scoring on their submitting
    // threads (the closed queue refuses any new one).
    std::unique_lock<std::mutex> lock(inflight_mu_);
    inflight_cv_.wait(lock, [this] { return inflight_ == 0; });
  });
}

Result<ScoreTicket> ScoringServer::Submit(
    std::vector<double> row, std::chrono::nanoseconds deadline_after) {
  return Submit(std::move(row), RequestAuditInfo{}, deadline_after);
}

Result<ScoreTicket> ScoringServer::Submit(
    std::vector<double> row, const RequestAuditInfo& audit,
    std::chrono::nanoseconds deadline_after) {
  const size_t width = row.size();
  return Submit(std::move(row), width, audit, SubmitTraceInfo{},
                deadline_after);
}

Result<ScoreTicket> ScoringServer::Submit(
    std::vector<double> rows, size_t width, const RequestAuditInfo& audit,
    const SubmitTraceInfo& trace, std::chrono::nanoseconds deadline_after) {
  const size_t count = width == 0 ? 0 : rows.size() / width;
  if (count == 0 || rows.size() != count * width) {
    stats_.RecordInvalidRequest();
    return Status::InvalidArgument(
        StrFormat("Submit: %zu values are not a whole number of %zu-field "
                  "rows",
                  rows.size(), width));
  }
  auto now = std::chrono::steady_clock::now();
  auto deadline = admission_.ResolveDeadline(now, deadline_after);
  Status admit = admission_.Admit(queue_, now, deadline,
                                  stats_.EwmaBatchLatencyNs(),
                                  options_.batching.max_batch_size,
                                  max_inflight_, count);
  if (!admit.ok()) {
    if (admit.code() == StatusCode::kDeadlineExceeded) {
      stats_.RecordDeadlineShed(count);
    } else {
      stats_.RecordAdmissionShed(count);
    }
    return admit;
  }
  // Width check against the current snapshot: cheap, catches client bugs
  // synchronously. Content (category codes) is validated per row by
  // ProcessBatch against the snapshot that actually scores it.
  size_t expected = CurrentSnapshot()->num_features();
  if (width != expected) {
    stats_.RecordInvalidRequest(count);
    return Status::InvalidArgument(
        StrFormat("Submit: row has %zu fields, snapshot schema has %zu",
                  width, expected));
  }

  auto state = std::make_shared<serve_internal::TicketState>();
  state->count = count;
  state->width = width;
  state->unresolved = count;
  state->audit = audit;
  if (count > 1) state->rest.resize(count - 1);
  uint64_t sampled = 0;
  if (options_.trace.enabled) {
    // Mint at admission: the id is the row's content hash, so the
    // sampled set is identical under every batching / sharding /
    // threading configuration. Unsampled rows keep the zero context and
    // never touch the slot again.
    const uint64_t admit_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now.time_since_epoch())
            .count());
    for (size_t i = 0; i < count; ++i) {
      TraceSpanSlot& slot = state->row(i).trace;
      slot.context = MintTraceContext(rows.data() + i * width, width,
                                      options_.trace.sample_modulus);
      if (!slot.sampled()) continue;
      ++sampled;
      slot.context.parent_span_id = trace.parent_span_id;
      if (trace.wire_recv_ns != 0) {
        slot.StampAt(TraceStage::kWireRecv, trace.wire_recv_ns);
      }
      slot.StampAt(TraceStage::kAdmit, admit_ns);
      slot.Stamp(TraceStage::kEnqueue);
    }
  }
  state->rows = std::move(rows);
  PendingRequest unit;
  unit.ticket = state;
  unit.count = count;
  unit.enqueue_time = now;
  unit.deadline = deadline;
  // A multi-row unit (a wire frame) that fits one batch, finds nothing
  // queued ahead of it and an inflight slot free without waiting is its
  // own batch, scored right here (the architecture note in server.h).
  // Everything else queues.
  const size_t cap = batcher_.options().max_batch_size;
  bool own_batch = count > 1 && count <= cap && TryAcquireInflightSlot();
  if (own_batch && !queue_.TryCheckOut(count)) {
    ReleaseInflightSlot();
    own_batch = false;
  }
  if (!own_batch && !queue_.TryPush(std::move(unit), cap)) {
    stats_.RecordAdmissionShed(count);
    return queue_.closed()
               ? Status::Unavailable("Submit: server stopped")
               : Status::Unavailable("Submit: queue depth limit reached");
  }
  stats_.RecordSubmitted(count);
  if (sampled != 0) stats_.RecordTraceSampled(sampled);
  if (own_batch) {
    StampDequeue({&unit, &unit + 1});
    RunBatch({&unit, &unit + 1}, count, &InlinePool());
  }
  return ScoreTicket(std::move(state));
}

size_t ScoringServer::inflight_batches() const {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  return inflight_;
}

Status ScoringServer::Quiesce(std::chrono::nanoseconds timeout,
                              bool require_empty_queue) const {
  // Fault site: a forced drain stall, typed exactly like the real one so
  // it flows through the rolling update's retry/rollback machinery.
  if (FAULT_POINT_ARG("fleet.drain", options_.fault_tag)) {
    return Status::DeadlineExceeded(
        "Quiesce: server did not drain (injected fault: fleet.drain)");
  }
  auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<std::mutex> lock(inflight_mu_);
  for (;;) {
    // Conservation invariant (RequestQueue::checked_out): every admitted
    // row is visible in the queue's size or in its checked-out count
    // until its batch worker acknowledges it AFTER resolving its row.
    // So queue empty + nothing checked out certifies no row is hidden
    // in the micro-batcher's coalescing window or the
    // dispatcher-to-worker hand-off — no wall-clock margin needed. The
    // inflight check is subsumed but kept as a cheap belt-and-braces.
    bool drained = queue_.checked_out() == 0 && inflight_ == 0 &&
                   (!require_empty_queue || queue_.size() == 0);
    if (drained) return Status::OK();
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded("Quiesce: server did not drain");
    }
    // inflight_cv_ fires on batch completion; the short cap also re-polls
    // the queue while the dispatcher is between pop and dispatch.
    inflight_cv_.wait_for(lock, std::chrono::microseconds(200));
  }
}

Result<ScoreResult> ScoringServer::ScoreSync(
    std::vector<double> row, std::chrono::nanoseconds deadline_after) {
  Result<ScoreTicket> ticket = Submit(std::move(row), deadline_after);
  if (!ticket.ok()) return ticket.status();
  return ticket.value().Wait();
}

Status ScoringServer::UpdateSnapshot(
    std::shared_ptr<const ModelSnapshot> snapshot) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("UpdateSnapshot: null snapshot");
  }
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(snapshot);
  }
  stats_.RecordSnapshotSwap();
  return Status::OK();
}

std::shared_ptr<const ModelSnapshot> ScoringServer::CurrentSnapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

std::unique_ptr<ScoreScratch> ScoringServer::AcquireScratch() {
  {
    std::lock_guard<std::mutex> lock(scratch_mu_);
    if (!scratch_pool_.empty()) {
      std::unique_ptr<ScoreScratch> scratch = std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
      return scratch;
    }
  }
  return std::make_unique<ScoreScratch>();
}

void ScoringServer::ReleaseScratch(std::unique_ptr<ScoreScratch> scratch) {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  if (scratch_pool_.size() < max_inflight_) {
    scratch_pool_.push_back(std::move(scratch));
  }
}

bool ScoringServer::TryAcquireInflightSlot() {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  if (inflight_ >= max_inflight_) return false;
  ++inflight_;
  return true;
}

void ScoringServer::AcquireInflightSlot() {
  std::unique_lock<std::mutex> lock(inflight_mu_);
  inflight_cv_.wait(lock, [this] { return inflight_ < max_inflight_; });
  ++inflight_;
}

void ScoringServer::ReleaseInflightSlot() {
  // Notify under the lock: Stop() destroys this condvar as soon as it
  // observes inflight_ == 0, so the notifying worker must be provably
  // done with it before the waiter can re-acquire the mutex.
  std::lock_guard<std::mutex> lock(inflight_mu_);
  --inflight_;
  inflight_cv_.notify_all();
}

void ScoringServer::StampDequeue(Pieces batch) {
  if (!options_.trace.enabled) return;
  // One clock read covers the batch: every member left the queue (or
  // skipped it) at once.
  uint64_t now_ns = MonotonicNowNs();
  for (PendingRequest& piece : batch) {
    for (size_t i = piece.begin; i < piece.begin + piece.count; ++i) {
      TraceSpanSlot& slot = piece.ticket->row(i).trace;
      if (slot.sampled()) slot.StampAt(TraceStage::kDequeue, now_ns);
    }
  }
}

void ScoringServer::RunBatch(Pieces batch, size_t rows, ThreadPool* pool) {
  ProcessBatch(batch, pool);
  // The queue's checked-out claim goes before the inflight slot, so a
  // drain barrier that wakes on the slot sees the full acknowledgment.
  queue_.AckCheckedOut(rows);
  ReleaseInflightSlot();
}

void ScoringServer::DispatchLoop() {
  // A batch under the cap is scored right here, its loops inline, out of
  // a vector this thread keeps; a full batch goes to pool_ (the
  // architecture note in server.h says why).
  const size_t cap = batcher_.options().max_batch_size;
  std::vector<PendingRequest> owned;
  for (;;) {
    const size_t rows = batcher_.NextBatch(&owned);
    if (rows == 0) return;  // closed and drained
    const Pieces popped{owned.data(), owned.data() + owned.size()};
    StampDequeue(popped);
    // Bound the scoring work in flight before taking on another batch:
    // the dispatcher is the only back-pressure between the queue and the
    // pool. A batch scored here holds a slot too, so inflight_batches()
    // and Quiesce see it exactly like one on a worker.
    AcquireInflightSlot();
    if (rows < cap) {
      RunBatch(popped, rows, &InlinePool());
      continue;
    }
    auto batch = std::make_shared<std::vector<PendingRequest>>(
        std::move(owned));
    pool_->Submit([this, batch, rows] {
      RunBatch({batch->data(), batch->data() + batch->size()}, rows, pool_);
    });
  }
}

namespace {

// Calls fn(piece, slot, i) for every row i of the batch whose slot holds
// no error — the rows headed for (or through) the scorer — in batch
// order, which is the order they are staged in.
template <typename Batch, typename Fn>
void ForEachLiveRow(const Batch& batch, Fn&& fn) {
  for (PendingRequest& piece : batch) {
    for (size_t i = piece.begin; i < piece.begin + piece.count; ++i) {
      serve_internal::RowSlot& slot = piece.ticket->row(i);
      if (slot.error.ok()) fn(piece, slot, i);
    }
  }
}

}  // namespace

void ScoringServer::ProcessBatch(Pieces batch, ThreadPool* pool) {
  // Fault site: a kWedge rule blocks the thread scoring this batch (the
  // dispatcher for a batch under the cap, a pool worker for a full one,
  // the submitting thread for a unit that is its own batch) inside
  // Hit() until the rule is cleared — the wedged-shard scenario the
  // health monitor must detect (pending work, no dispatcher progress).
  (void)FAULT_POINT_ARG("server.wedge", options_.fault_tag);
  // One immutable snapshot per batch: rows in this batch all score the
  // same model state even if a swap lands mid-batch.
  std::shared_ptr<const ModelSnapshot> snapshot = CurrentSnapshot();
  size_t width = snapshot->num_features();
  auto now = std::chrono::steady_clock::now();

  // Cull: a piece past its deadline or of the wrong width fails whole;
  // otherwise each row is validated on its own, so one bad row never
  // fails its neighbours.
  size_t live = 0;
  for (PendingRequest& piece : batch) {
    serve_internal::TicketState& unit = *piece.ticket;
    Status piece_error;
    if (piece.deadline <= now) {
      stats_.RecordDeadlineShed(piece.count);
      piece_error = Status::DeadlineExceeded("shed: deadline expired in queue");
    } else if (unit.width != width) {
      stats_.RecordInvalidRequest(piece.count);
      piece_error = Status::InvalidArgument(
          StrFormat("row has %zu fields, scoring snapshot schema has %zu",
                    unit.width, width));
    }
    for (size_t i = piece.begin; i < piece.begin + piece.count; ++i) {
      serve_internal::RowSlot& slot = unit.row(i);
      if (!piece_error.ok()) {
        slot.error = piece_error;
        continue;
      }
      slot.error = snapshot->ValidateRow(unit.rows.data() + i * width);
      if (slot.error.ok()) {
        ++live;
      } else {
        stats_.RecordInvalidRequest();
      }
    }
  }
  const bool scored =
      live != 0 && ScoreLiveRows(batch, *snapshot, live, now, pool);
  // One completion per unit: a piece resolves all its rows at once, and
  // the unit completes with its last piece.
  for (PendingRequest& piece : batch) piece.ticket->Resolve(piece.count);
  if (scored && options_.trace.enabled && options_.trace.sink != nullptr &&
      !options_.trace.defer_emit) {
    // Whole-span export happens after rows resolve: a waiting client
    // never blocks on trace-log I/O, and only sampled rows reach the
    // sink at all.
    ForEachLiveRow(batch, [this](PendingRequest&, serve_internal::RowSlot& slot,
                                 size_t) {
      if (slot.trace.sampled()) {
        AppendTraceRecord(slot.trace, slot.result.snapshot_version);
      }
    });
  }
}

bool ScoringServer::ScoreLiveRows(Pieces batch, const ModelSnapshot& snapshot,
                                  size_t live,
                                  std::chrono::steady_clock::time_point start,
                                  ThreadPool* pool) {
  using serve_internal::RowSlot;
  const size_t width = snapshot.num_features();
  // Score out of a recycled per-worker scratch: the staging matrix, the
  // snapshot's encoding buffers, and the result vector all reshape in
  // place, so steady-state batches allocate nothing (ScoreBatchInto).
  std::unique_ptr<ScoreScratch> scratch = AcquireScratch();
  scratch->rows.ReshapeForOverwrite(live, width);  // rows copied below
  size_t k = 0;
  ForEachLiveRow(batch, [&](PendingRequest& piece, RowSlot&, size_t i) {
    const double* row = piece.ticket->rows.data() + i * width;
    std::copy(row, row + width, scratch->rows.RowPtr(k++));
  });
  const bool tracing = options_.trace.enabled;
  if (tracing) {
    uint64_t now_ns = MonotonicNowNs();
    ForEachLiveRow(batch, [now_ns](PendingRequest&, RowSlot& slot, size_t) {
      if (slot.trace.sampled()) {
        slot.trace.StampAt(TraceStage::kBatchAssemble, now_ns);
      }
    });
  }
  Status scored =
      options_.monitor_override.has_value()
          ? snapshot.ScoreBatchInto(scratch->rows, scratch.get(),
                                    *options_.monitor_override, pool)
          : snapshot.ScoreBatchInto(scratch->rows, scratch.get(), pool);
  if (!scored.ok()) {
    ReleaseScratch(std::move(scratch));
    ForEachLiveRow(batch, [&scored](PendingRequest&, RowSlot& slot, size_t) {
      slot.error = scored;
    });
    return false;
  }
  auto done = std::chrono::steady_clock::now();
  const uint64_t done_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          done.time_since_epoch())
          .count());
  // Record stats before resolving any row: a client that returns from
  // Wait and immediately reads stats() must see its own request counted.
  // The batch latency feeds the EWMA the cost-aware admission consults.
  stats_.RecordBatch(live, done - start);
  if (options_.audit != nullptr) {
    scratch->audit_groups.resize(live);
    scratch->audit_labels.resize(live);
  }
  uint64_t density_checked = 0;
  uint64_t density_outliers = 0;
  k = 0;
  ForEachLiveRow(batch, [&](PendingRequest& piece, RowSlot& slot, size_t) {
    ScoreResult& r = scratch->results[k];
    if (tracing) {
      // The snapshot's score fields are untouched; the trace id rides
      // along so wire replies can surface it. Written for every live
      // row (0 when unsampled) because the scratch results recycle.
      r.trace_id = slot.trace.context.trace_id;
      if (slot.trace.sampled()) slot.trace.StampAt(TraceStage::kScore, done_ns);
    }
    if (r.density_checked) {
      ++density_checked;
      if (r.density_outlier) ++density_outliers;
    }
    if (options_.audit != nullptr) {
      // Explicit request metadata wins over the group the snapshot
      // extracted from the row itself.
      const RequestAuditInfo& info = piece.ticket->audit;
      scratch->audit_groups[k] = info.group >= 0 ? info.group : r.group;
      scratch->audit_labels[k] = info.label;
    }
    stats_.RecordCompletion(done - piece.enqueue_time);
    slot.result = r;
    ++k;
  });
  stats_.RecordDensity(density_checked, density_outliers);
  if (options_.audit != nullptr) {
    // Folding happens before rows resolve for the same reason stats do —
    // a client returning from Wait sees its own row in the audit
    // counters.
    AuditFoldOutcome outcome;
    options_.audit->FoldBatch(scratch->rows, scratch->results.data(),
                              scratch->audit_groups.data(),
                              scratch->audit_labels.data(), live, &outcome);
    stats_.RecordAuditFold(outcome);
  }
  ReleaseScratch(std::move(scratch));
  if (tracing) {
    // audit_fold delimits the fold section even for unaudited servers
    // (a ~zero-length span), so whole-span records always close with it
    // and stage decomposition sums to the scored path.
    uint64_t fold_ns = MonotonicNowNs();
    ForEachLiveRow(batch, [&](PendingRequest&, RowSlot& row, size_t) {
      TraceSpanSlot& slot = row.trace;
      if (!slot.sampled()) return;
      slot.StampAt(TraceStage::kAuditFold, fold_ns);
      auto stage_delta = [&slot](TraceStage from, TraceStage to) {
        return std::chrono::nanoseconds(
            static_cast<int64_t>(slot.stamp(to) - slot.stamp(from)));
      };
      stats_.RecordStageLatency(
          0, stage_delta(TraceStage::kEnqueue, TraceStage::kDequeue));
      stats_.RecordStageLatency(
          1, stage_delta(TraceStage::kDequeue, TraceStage::kBatchAssemble));
      stats_.RecordStageLatency(
          2, stage_delta(TraceStage::kBatchAssemble, TraceStage::kScore));
      stats_.RecordStageLatency(
          3, stage_delta(TraceStage::kScore, TraceStage::kAuditFold));
    });
  }
  return true;
}

void ScoringServer::AppendTraceRecord(const TraceSpanSlot& slot,
                                      uint64_t snapshot_version) {
  Status appended =
      options_.trace.sink->Append(slot, options_.trace.role, snapshot_version);
  if (!appended.ok()) stats_.RecordTraceAppendFailure();
}

void ScoringServer::EmitTrace(const ScoreTicket& ticket, size_t row) {
  if (options_.trace.sink == nullptr || row >= ticket.size()) return;
  const serve_internal::RowSlot& slot = ticket.state_->row(row);
  if (!slot.trace.sampled()) return;
  // Reading result/error without the ticket mutex is ordered: callers
  // emit only after Wait() returned for this ticket on this thread.
  AppendTraceRecord(slot.trace,
                    slot.error.ok() ? slot.result.snapshot_version : 0);
}

}  // namespace fairdrift
