// ScoringServer: the asynchronous online scoring front end.
//
// Architecture (one arrow = one thread boundary):
//
//   client threads --Submit(unit)--> [AdmissionController] -->
//        |-- a multi-row unit that fits one batch, with nothing queued
//        |   ahead of it and an inflight slot free: its own batch,
//        |   scored on the submitting thread, its loops inline
//        '-- anything else --> [RequestQueue] --> dispatch thread
//            --[MicroBatcher]--> batch
//            |-- fewer rows than max_batch_size: scored on the dispatch
//            |   thread itself, its loops inline (a 0-worker pool)
//            '-- a full batch --ThreadPool::Submit--> batch worker
//   every way, one ProcessBatch: cull expired deadlines, validate rows,
//   ModelSnapshot::ScoreBatch (one immutable snapshot per batch),
//   resolve rows, record ServerStats
//
// A batch stops short of the cap when the queue ran dry (or its next
// unit did not fit), so a worker would have little to overlap with, and
// the hand-off costs more than scoring a few rows. Scoring it inline
// also keeps serving out of the pool's FIFO, where it would queue behind
// a Fit's parallel loops. A full batch is the sign that more rows are
// queued: it goes to the pool while the dispatcher coalesces the next
// one. A wire frame that finds the server idle skips both hand-offs:
// the queue → dispatcher wake-up and the dispatcher → ticket wake-up
// cost about as much as scoring its rows, and its submitting thread (a
// shard daemon's connection thread) would only block on the ticket
// meanwhile. It never jumps a queued row, so FIFO order and the
// coalescing window stand, and a single row always queues. Every kind
// holds an inflight slot and is checked out of the queue
// (RequestQueue::checked_out) until its rows resolve, so
// inflight_batches(), Quiesce and Stop see them alike.
//
// The unit of admission is a run of 1..N contiguous rows with one
// ticket and one completion: a single-row Submit is a unit of one, a
// shard daemon submits each wire frame as one unit. A unit is admitted
// or shed whole; the queue bound, the cost-aware prediction and the
// drain barrier all count rows. A unit longer than the batch cap is
// queued as cap-sized pieces sharing its ticket. Only a single-row unit
// opens the coalescing window (micro_batcher.h).
//
// Snapshot isolation: UpdateSnapshot atomically publishes a new
// ModelSnapshot; batches already dispatched keep scoring the snapshot
// they grabbed, new batches see the new one. No request ever observes a
// half-swapped model, and no swap ever waits for traffic to drain. (The
// pieces of one long unit are separate batches, so a swap may land
// between them; every row still reports the version that scored it.)
//
// Determinism: a given request row produces bitwise-identical
// ScoreResult fields under every batching configuration and worker
// count (the snapshot's contract). Only batch *composition* and
// therefore throughput/latency depend on the configuration.

#ifndef FAIRDRIFT_SERVE_SERVER_H_
#define FAIRDRIFT_SERVE_SERVER_H_

#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "serve/admission.h"
#include "serve/micro_batcher.h"
#include "serve/request_queue.h"
#include "serve/server_stats.h"
#include "serve/snapshot.h"
#include "serve/ticket.h"
#include "util/status.h"

namespace fairdrift {

class ThreadPool;    // util/parallel.h
class ShardAuditor;  // serve/audit/auditor.h
class TraceLog;      // serve/trace/trace_log.h

/// Request-scoped tracing configuration (serve/trace/). Sampling is
/// content-hash deterministic (MintTraceContext), so the same rows are
/// sampled regardless of batching, shard assignment, or worker count.
struct ServerTraceOptions {
  /// Master switch. Off = zero tracing work on every path (the
  /// historical behavior).
  bool enabled = false;
  /// Sample 1-in-modulus rows by content hash (0 or 1 = every row).
  uint32_t sample_modulus = 64;
  /// Whole-span record sink for sampled requests. Not owned; must
  /// outlive the server. Null = stamp spans + fold stage histograms
  /// only, emit no records.
  TraceLog* sink = nullptr;
  /// Role name stamped into emitted records ("server", "shard", ...).
  const char* role = "server";
  /// When true the server does NOT emit records after scoring; the
  /// owner (a shard daemon) stamps transport stages on the completed
  /// ticket and calls EmitTrace itself, so wire_send lands inside the
  /// span.
  bool defer_emit = false;
};

/// Full server configuration.
struct ServerOptions {
  BatchingOptions batching;
  AdmissionOptions admission;
  /// Batches scored concurrently, counting one the dispatch thread is
  /// scoring itself and units their submitting threads score (the
  /// dispatcher stops coalescing new batches while this many are in
  /// flight, and a unit that finds none free queues). 0 = scoring-pool
  /// workers + 1.
  size_t max_inflight_batches = 0;
  /// Pool that full batches (max_batch_size rows) are scored on (global
  /// pool when null); smaller batches are scored on the dispatch thread,
  /// or on the submitting thread (see the architecture note), whatever
  /// the pool. A 0-worker pool scores every batch on one of those two.
  /// Scores are bitwise identical either way.
  ThreadPool* pool = nullptr;
  /// When set, batches score the density monitor under this policy
  /// instead of the snapshot's own MonitorSpec — a per-deployment knob
  /// that survives snapshot hot-swaps (it applies to whatever snapshot
  /// is current). Unset = honor each snapshot's persisted spec.
  std::optional<MonitorSpec> monitor_override;
  /// Opaque tag passed to this server's fault-injection sites
  /// (FAULT_POINT_ARG), so a rule can target one server of a fleet.
  /// ScoringFleet sets it to the shard index.
  uint64_t fault_tag = 0;
  /// Fairness audit sink (serve/audit/): every scored row of every batch
  /// is folded into this shard accumulator right after scoring, before
  /// tickets complete. Not owned; must outlive the server. Null = no
  /// auditing (the historical behavior, zero overhead).
  ShardAuditor* audit = nullptr;
  /// Request-scoped tracing (serve/trace/).
  ServerTraceOptions trace;
};

/// Trace linkage a transport layer attaches to a Submit: the upstream
/// span to parent under and the wire-receive stamp taken when the
/// carrying frame arrived (0 = not a wire request).
struct SubmitTraceInfo {
  uint64_t parent_span_id = 0;
  uint64_t wire_recv_ns = 0;
};

/// Asynchronous micro-batching scoring server over immutable snapshots.
class ScoringServer {
 public:
  /// Validates options, installs `snapshot`, and starts the dispatch
  /// thread. The server is accepting requests when Create returns.
  static Result<std::unique_ptr<ScoringServer>> Create(
      std::shared_ptr<const ModelSnapshot> snapshot,
      const ServerOptions& options = {});

  /// Stops and drains (see Stop).
  ~ScoringServer();

  ScoringServer(const ScoringServer&) = delete;
  ScoringServer& operator=(const ScoringServer&) = delete;

  /// Submits one request row: a unit of one. `deadline_after` bounds how
  /// long the request may wait before being shed (<= 0 uses the
  /// admission policy's default; no default = no deadline). Fails fast
  /// with the typed admission status (Unavailable on overload/shutdown,
  /// DeadlineExceeded, InvalidArgument on a width mismatch); otherwise
  /// the returned ticket completes when its batch is scored.
  Result<ScoreTicket> Submit(
      std::vector<double> row,
      std::chrono::nanoseconds deadline_after = std::chrono::nanoseconds{0});

  /// Submit with audit metadata attached: an explicit group id (overrides
  /// the snapshot's own group-field extraction) and/or a ground-truth
  /// label, folded into the fairness windows when the server audits.
  Result<ScoreTicket> Submit(
      std::vector<double> row, const RequestAuditInfo& audit,
      std::chrono::nanoseconds deadline_after = std::chrono::nanoseconds{0});

  /// Submits one unit: rows.size() / width contiguous rows of `width`
  /// fields, row-major, under one deadline (`audit` applies to every
  /// row). The unit is admitted or shed whole, and the whole unit fails
  /// fast with the typed status (InvalidArgument when `rows` is not a
  /// whole, nonzero number of rows or `width` is not the snapshot's).
  /// Otherwise the one returned ticket completes when its last row
  /// resolves (before Submit returns, when the unit was its own batch on
  /// this thread); ticket.Wait(i) then gives row i's score or typed error
  /// (DeadlineExceeded when shed in the queue, InvalidArgument for a bad
  /// category code), so one bad row never fails its neighbours.
  /// `trace` links the unit to an upstream span (shard daemons): each
  /// sampled row's span parents under `trace.parent_span_id` and carries
  /// the wire-receive stamp. Rows are minted and sampled for tracing on
  /// their own content, exactly as if submitted alone; no-op when
  /// tracing is disabled.
  Result<ScoreTicket> Submit(std::vector<double> rows, size_t width,
                             const RequestAuditInfo& audit,
                             const SubmitTraceInfo& trace,
                             std::chrono::nanoseconds deadline_after);

  /// Emits row `row` of a completed ticket's whole-span record to the
  /// configured sink. Only for owners that set
  /// ServerTraceOptions::defer_emit (they stamp transport stages on the
  /// row's slot first); no-op for unsampled rows or without a sink.
  /// Append failures are counted (ServerStats::trace_append_failures),
  /// never surfaced — tracing must not fail serving.
  void EmitTrace(const ScoreTicket& ticket, size_t row);

  /// Submit + Wait. Not callable from the scoring pool's own workers.
  Result<ScoreResult> ScoreSync(
      std::vector<double> row,
      std::chrono::nanoseconds deadline_after = std::chrono::nanoseconds{0});

  /// Atomically publishes a new snapshot for subsequent batches.
  /// In-flight batches finish against the snapshot they started with.
  Status UpdateSnapshot(std::shared_ptr<const ModelSnapshot> snapshot);

  /// The snapshot new batches will score against.
  std::shared_ptr<const ModelSnapshot> CurrentSnapshot() const;

  /// Closes admission, drains every queued request through the normal
  /// scoring path (tickets all complete), and joins the dispatcher.
  /// Idempotent; called by the destructor.
  void Stop();

  /// Rows currently waiting in this server's queue (racy snapshot — the
  /// fleet router's load signal, not a synchronization primitive).
  size_t queue_depth() const { return queue_.size(); }

  /// Batches currently being scored, by the dispatch thread, by pool
  /// workers or by submitting threads (racy snapshot).
  size_t inflight_batches() const;

  /// Blocks until this server is provably drained: nothing queued
  /// (unless `require_empty_queue` is false), no row checked out of the
  /// queue (the pop-to-completion handshake — covers rows the
  /// dispatcher popped but is still coalescing, scoring or handing to a
  /// worker, and a unit its submitting thread is scoring), and no batch
  /// in flight. The fleet's rolling update uses this as its per-shard
  /// drain barrier — the router has already steered traffic away, so the
  /// queue empties and the barrier certifies every previously admitted
  /// request scored against the pre-swap snapshot.
  /// Returns DeadlineExceeded when `timeout` elapses first (traffic
  /// kept arriving, or a batch is stuck). Does NOT close admission; new
  /// submits keep working throughout.
  Status Quiesce(std::chrono::nanoseconds timeout,
                 bool require_empty_queue = true) const;

  /// Live statistics view.
  ServerStats::View stats() const { return stats_.Snapshot(); }

  const ServerOptions& options() const { return options_; }

 private:
  ScoringServer(std::shared_ptr<const ModelSnapshot> snapshot,
                const ServerOptions& options);

  /// A batch's pieces, in batch order: a popped batch's vector, or the
  /// one piece of a unit scored on its submitting thread (no vector, so
  /// that path allocates nothing).
  struct Pieces {
    PendingRequest* first;
    PendingRequest* last;
    PendingRequest* begin() const { return first; }
    PendingRequest* end() const { return last; }
  };

  void DispatchLoop();
  /// Stamps kDequeue on the batch's sampled rows (no-op untraced).
  void StampDequeue(Pieces batch);
  /// ProcessBatch, then acknowledges the batch's `rows` checked-out rows
  /// and releases its inflight slot.
  void RunBatch(Pieces batch, size_t rows, ThreadPool* pool);
  /// Culls, validates, scores and resolves one batch; `pool` runs the
  /// scoring loops (the 0-worker pool on the dispatch or submitting
  /// thread, pool_ on a worker).
  void ProcessBatch(Pieces batch, ThreadPool* pool);
  /// Scores the batch's `live` rows (those whose slot holds no error)
  /// against `snapshot` in one call and writes each result into its
  /// slot, recording stats, the audit fold and trace stages first.
  /// Returns false when scoring failed (the error is then in every live
  /// row's slot). `start` is when the batch began processing.
  bool ScoreLiveRows(Pieces batch, const ModelSnapshot& snapshot, size_t live,
                     std::chrono::steady_clock::time_point start,
                     ThreadPool* pool);
  /// Appends `slot`'s record to the trace sink, counting (never
  /// propagating) failures.
  void AppendTraceRecord(const TraceSpanSlot& slot, uint64_t snapshot_version);
  void AcquireInflightSlot();
  /// Takes a slot only if one is free now.
  bool TryAcquireInflightSlot();
  void ReleaseInflightSlot();

  /// Batch buffers, recycled across batches so steady-state scoring
  /// re-encodes into the same matrices instead of rebuilding a
  /// Dataset + encoded matrix per batch. The pool holds at most
  /// max_inflight_ scratches (one per concurrent batch).
  std::unique_ptr<ScoreScratch> AcquireScratch();
  void ReleaseScratch(std::unique_ptr<ScoreScratch> scratch);

  ServerOptions options_;
  RequestQueue queue_;
  MicroBatcher batcher_;
  AdmissionController admission_;
  ServerStats stats_;
  ThreadPool* pool_;  // resolved, never null

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const ModelSnapshot> snapshot_;

  mutable std::mutex inflight_mu_;
  mutable std::condition_variable inflight_cv_;
  size_t inflight_ = 0;
  size_t max_inflight_ = 1;

  std::mutex scratch_mu_;
  std::vector<std::unique_ptr<ScoreScratch>> scratch_pool_;

  std::thread dispatcher_;
  std::once_flag stop_once_;
};

}  // namespace fairdrift

#endif  // FAIRDRIFT_SERVE_SERVER_H_
