// MicroBatcher: coalesces queued admission units into batches.
//
// Per-batch costs on the serving path (queue round-trips, condvar
// wake-ups, task dispatch, per-call kernel overhead) dwarf the per-row
// cost of the batched kernels the library already has. The batcher
// amortizes them: the dispatch loop pops whole units up to
// `max_batch_size` rows at once into one ModelSnapshot::ScoreBatch call.
// The batch's size then decides where it is scored: under the cap on the
// dispatch thread itself, full on a pool worker, because only a full
// batch says more rows are queued (server.h). Only a unit of one waits:
// after a single-row first unit the dispatcher waits at most
// `max_batch_delay` for stragglers, while a multi-row unit (a wire
// frame) is dispatched at once — it already spreads the hand-off over
// its own rows, and its rows all arrived together, so waiting would only
// idle out the window. A multi-row unit that fits a batch reaches the
// batcher only when rows are queued ahead of it or every inflight slot
// is taken; otherwise its submitting thread scores it without queueing
// (server.h). A unit longer than `max_batch_size` reaches the queue as
// pieces of at most that many rows, so no batch exceeds the cap.
//
// Batch *composition* is timing-dependent by design; per-row results are
// not (the snapshot's determinism contract), so coalescing never changes
// what a request scores, only how cheaply.

#ifndef FAIRDRIFT_SERVE_MICRO_BATCHER_H_
#define FAIRDRIFT_SERVE_MICRO_BATCHER_H_

#include <chrono>
#include <vector>

#include "serve/request_queue.h"

namespace fairdrift {

/// Coalescing policy.
struct BatchingOptions {
  /// Most rows one ScoreBatch call receives. 1 disables coalescing
  /// (every row pays the full per-batch overhead — the bench's baseline
  /// configuration).
  size_t max_batch_size = 64;
  /// How long the dispatcher waits after a batch's first unit, when that
  /// unit is a single row, for more arrivals. Bounds the latency cost of
  /// batching under light load.
  std::chrono::microseconds max_batch_delay{200};
};

/// Pulls coalesced batches off a RequestQueue.
class MicroBatcher {
 public:
  MicroBatcher(RequestQueue* queue, const BatchingOptions& options);

  /// Blocks for the next batch (clearing and filling `out` with whole
  /// pieces); returns its rows, or 0 when the queue is closed and fully
  /// drained.
  size_t NextBatch(std::vector<PendingRequest>* out);

  const BatchingOptions& options() const { return options_; }

 private:
  RequestQueue* queue_;
  BatchingOptions options_;
};

}  // namespace fairdrift

#endif  // FAIRDRIFT_SERVE_MICRO_BATCHER_H_
