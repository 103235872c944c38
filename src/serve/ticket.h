// ScoreTicket: the asynchronous response handle of the scoring server.
//
// Submit() admits one unit — a run of 1..N contiguous rows — and hands
// back one ticket for it immediately. The batch workers fulfill the
// unit's rows from whichever batches its pieces land in; the ticket
// completes once, when its last row is resolved. Each row resolves
// exactly once — with a ScoreResult, or with a typed error Status
// (DeadlineExceeded for shed requests, InvalidArgument for malformed
// rows). Copyable; every copy observes the same state.

#ifndef FAIRDRIFT_SERVE_TICKET_H_
#define FAIRDRIFT_SERVE_TICKET_H_

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/snapshot.h"
#include "serve/trace/trace_context.h"
#include "util/status.h"

namespace fairdrift {

/// Optional per-request audit metadata (serve/audit/). A non-negative
/// `group` overrides the group the snapshot extracts from the row's own
/// group field; `label` is the ground-truth outcome when the caller
/// already knows it (delayed-feedback pipelines attach it at submit time
/// so equalized-odds windows are live), -1 = unlabeled. A multi-row unit
/// applies it to every row.
struct RequestAuditInfo {
  int group = -1;
  int label = -1;
};

namespace serve_internal {

/// One row of a unit: its outcome and its span storage.
struct RowSlot {
  Status error;        // OK when `result` is valid
  ScoreResult result;  // valid only when the unit is done && error.ok()
  /// Fixed-size span storage for a trace-sampled row (zero context when
  /// unsampled or tracing is off). Stamped by the server pipeline
  /// stages without synchronization: each stage happens-before the next
  /// through the queue/pool hand-offs, and a post-completion reader
  /// (the daemon's wire_send stamp + trace emission) is ordered by the
  /// unit's own done-signaling mutex.
  TraceSpanSlot trace;
};

/// Shared state between a ticket and the batch workers that fulfill it:
/// one admission unit. Everything but `done`/`unresolved` is written
/// before the unit is queued (rows, audit) or by the one worker whose
/// piece holds the row (slots), so only the completion count needs the
/// mutex.
struct TicketState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  size_t unresolved = 0;  // rows not yet resolved (guarded by mu)

  size_t count = 0;  // rows in the unit
  size_t width = 0;  // fields per row
  std::vector<double> rows;  // count * width, row-major
  RequestAuditInfo audit;
  /// Row 0 lives inline and rows 1.. in `rest`, so a unit of one costs
  /// the one allocation of this state and no outcome storage.
  RowSlot first;
  std::vector<RowSlot> rest;

  RowSlot& row(size_t i) { return i == 0 ? first : rest[i - 1]; }

  /// Marks `n` rows resolved (their slots already written). The call
  /// that resolves the last row completes the unit and wakes waiters.
  void Resolve(size_t n);
};

}  // namespace serve_internal

/// Waitable handle to one submitted unit.
class ScoreTicket {
 public:
  /// An empty ticket (Wait fails FailedPrecondition). Servers return
  /// populated tickets from Submit.
  ScoreTicket() = default;

  /// Blocks until the unit completes; returns its first row's score or
  /// typed error — the whole outcome of a single-row request. Do not
  /// call from a worker of the server's scoring pool (the fulfilling
  /// batch may be queued behind the waiter).
  Result<ScoreResult> Wait() const;

  /// Wait for row `row` of the unit (FailedPrecondition past size()).
  /// Every row resolves before the unit completes, so after the first
  /// call returns the rest never block.
  Result<ScoreResult> Wait(size_t row) const;

  /// Waits up to `timeout`. Returns true when the unit completed (the
  /// outcomes are then available via Wait, which no longer blocks).
  bool WaitFor(std::chrono::nanoseconds timeout) const;

  /// True once every row is resolved.
  bool done() const;

  /// True for tickets minted by a server (default-constructed ones are not).
  bool valid() const { return state_ != nullptr; }

  /// Rows in the unit (0 for an invalid ticket).
  size_t size() const { return state_ != nullptr ? state_->count : 0; }

  /// Row `row`'s span slot (null for invalid tickets or past size();
  /// zero trace id when unsampled). Mutable so transport layers can
  /// stamp wire stages after completion; read it only once done() to
  /// stay ordered with the server's stamps.
  TraceSpanSlot* trace_slot(size_t row = 0) const {
    return row < size() ? &state_->row(row).trace : nullptr;
  }

 private:
  friend class ScoringServer;
  explicit ScoreTicket(std::shared_ptr<serve_internal::TicketState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<serve_internal::TicketState> state_;
};

}  // namespace fairdrift

#endif  // FAIRDRIFT_SERVE_TICKET_H_
