// Bounded MPMC queue of pending admission units.
//
// Producers are client threads calling ScoringServer::Submit; consumers are
// the server's dispatch loop(s) popping coalesced batches through
// MicroBatcher. An item is a piece of a unit (a run of 1..N contiguous
// rows sharing one ticket); the queue counts rows, not items, so the
// bound is the admission controller's hard queue-depth limit in rows.
// TryPush never blocks — a full queue is an overload signal handled by
// shedding, not by back-pressuring the client thread.

#ifndef FAIRDRIFT_SERVE_REQUEST_QUEUE_H_
#define FAIRDRIFT_SERVE_REQUEST_QUEUE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/ticket.h"

namespace fairdrift {

/// One queued piece of an admission unit: rows [begin, begin + count) of
/// its ticket's unit. A unit that fits a batch is one piece; a longer
/// one is split into pieces that share its ticket, and so its one
/// completion.
struct PendingRequest {
  std::shared_ptr<serve_internal::TicketState> ticket;
  size_t begin = 0;
  size_t count = 1;
  std::chrono::steady_clock::time_point enqueue_time;
  /// Absolute shed deadline; time_point::max() = none.
  std::chrono::steady_clock::time_point deadline;
};

/// Thread-safe bounded FIFO with batch pop and close semantics.
class RequestQueue {
 public:
  explicit RequestQueue(size_t capacity) : capacity_(capacity) {}

  /// Enqueues a whole unit — split into pieces of at most
  /// `max_piece_rows` rows sharing its ticket — unless the queue is
  /// closed or the unit's rows would take the row count past capacity.
  /// All or nothing; returns false in both refusal cases (callers
  /// distinguish via closed()).
  bool TryPush(PendingRequest&& unit,
               size_t max_piece_rows = static_cast<size_t>(-1));

  /// Pops whole pieces in FIFO order, up to `max_rows` rows in total
  /// (the first piece is taken whatever its size). Blocks until one is
  /// available (or the queue is closed and drained — then returns 0).
  /// When the first piece is a unit of one, keeps absorbing arrivals
  /// until `max_rows` rows are gathered, the next piece does not fit, or
  /// `max_wait` has elapsed since the first pop — the micro-batching
  /// coalescing window. A multi-row piece already spreads the per-batch
  /// hand-off over its own rows, so it never waits. Returns the rows
  /// popped.
  size_t PopBatch(size_t max_rows, std::chrono::nanoseconds max_wait,
                  std::vector<PendingRequest>* out);

  /// Checks out a unit of `rows` rows that never enters the queue,
  /// because its submitting thread scores it (ScoringServer::Submit):
  /// only while the queue is open and holds no piece that would be
  /// ahead of it. The rows join checked_out() under the lock hold of
  /// that check, as a popped piece's do, and leave it with the
  /// consumer's AckCheckedOut. Returns false, changing nothing,
  /// otherwise.
  bool TryCheckOut(size_t rows);

  /// Marks the queue closed: further TryPush calls refuse, blocked
  /// PopBatch callers drain what remains and then return 0.
  void Close();

  /// One-lock snapshot of the observable state (for admission policy:
  /// reading size and closed separately would take the mutex twice per
  /// Submit, and the pair is a racy pre-check either way — TryPush
  /// re-checks both authoritatively).
  struct State {
    size_t size = 0;  // rows
    bool closed = false;
  };
  State Observe() const;

  bool closed() const;
  /// Queued rows.
  size_t size() const;
  /// The row bound.
  size_t capacity() const { return capacity_; }

  /// Rows PopBatch has handed out that the consumer has not yet
  /// acknowledged via AckCheckedOut. The increment happens under the
  /// same mutex hold that removes the piece, so at every instant an
  /// admitted row is visible in size() or in checked_out() — the
  /// conservation invariant the fleet's drain barrier
  /// (ScoringServer::Quiesce) relies on to certify that nothing is
  /// hidden inside the micro-batcher's coalescing window, a batch the
  /// dispatcher or a submitting thread is scoring, or its hand-off to a
  /// batch worker.
  size_t checked_out() const {
    return checked_out_.load(std::memory_order_acquire);
  }

  /// Consumer acknowledgment: `n` popped rows have been fully
  /// processed (their rows resolved). Called after scoring by the
  /// thread that scored the batch (the dispatcher, a batch worker, or
  /// the submitting thread of a unit it checked out).
  void AckCheckedOut(size_t n) {
    checked_out_.fetch_sub(n, std::memory_order_acq_rel);
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::deque<PendingRequest> items_;
  size_t rows_ = 0;  // rows queued in items_
  std::atomic<size_t> checked_out_{0};
  bool closed_ = false;
};

}  // namespace fairdrift

#endif  // FAIRDRIFT_SERVE_REQUEST_QUEUE_H_
