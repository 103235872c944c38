#include "serve/request_queue.h"

#include <algorithm>

#include "util/fault.h"

namespace fairdrift {

bool RequestQueue::TryPush(PendingRequest&& unit, size_t max_piece_rows) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || unit.count == 0 || unit.count > capacity_ - rows_) {
      return false;
    }
    rows_ += unit.count;
    const size_t piece = std::max<size_t>(1, max_piece_rows);
    while (unit.count > piece) {
      PendingRequest head = unit;  // shares the unit's ticket
      head.count = piece;
      items_.push_back(std::move(head));
      unit.begin += piece;
      unit.count -= piece;
    }
    items_.push_back(std::move(unit));
  }
  ready_.notify_one();
  return true;
}

size_t RequestQueue::PopBatch(size_t max_rows,
                              std::chrono::nanoseconds max_wait,
                              std::vector<PendingRequest>* out) {
  if (max_rows == 0) return 0;
  // Fault site: kDelay rules stall the dispatcher here (before the lock)
  // to widen the pop-to-ack window the drain barrier must cover.
  (void)FAULT_POINT("queue.pop");
  std::unique_lock<std::mutex> lock(mu_);
  ready_.wait(lock, [this] { return closed_ || !items_.empty(); });
  if (items_.empty()) return 0;  // closed and drained

  // Only a unit of one opens the window: the tail piece of a longer unit
  // (begin > 0) arrived with the rest of its unit.
  const bool coalesce =
      items_.front().count == 1 && items_.front().begin == 0;
  size_t popped = 0;
  // Takes pieces while they fit; returns true when the head piece is
  // left behind because it does not.
  auto take_fitting = [&] {
    while (!items_.empty()) {
      const size_t rows = items_.front().count;
      if (popped != 0 && popped + rows > max_rows) return true;
      out->push_back(std::move(items_.front()));
      items_.pop_front();
      rows_ -= rows;
      // Under the same mutex hold that shrinks items_: an observer never
      // sees a row in neither size() nor checked_out().
      checked_out_.fetch_add(rows, std::memory_order_acq_rel);
      popped += rows;
    }
    return false;
  };
  bool head_blocked = take_fitting();

  // Coalescing window: absorb arrivals until the batch fills, the head
  // no longer fits, or the window since the first pop elapses. A closed
  // queue ends the window early — shutdown should not pay the full
  // batching delay. (Every exit path leaves nothing takeable: the
  // in-loop drain runs under the same lock hold as the predicate that
  // admitted it.)
  auto window_end = std::chrono::steady_clock::now() + max_wait;
  while (coalesce && !head_blocked && popped < max_rows && !closed_) {
    if (!ready_.wait_until(lock, window_end, [this] {
          return closed_ || !items_.empty();
        })) {
      break;  // window elapsed
    }
    head_blocked = take_fitting();
  }
  return popped;
}

bool RequestQueue::TryCheckOut(size_t rows) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || !items_.empty()) return false;
  checked_out_.fetch_add(rows, std::memory_order_acq_rel);
  return true;
}

void RequestQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  ready_.notify_all();
}

RequestQueue::State RequestQueue::Observe() const {
  std::lock_guard<std::mutex> lock(mu_);
  return State{rows_, closed_};
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rows_;
}

}  // namespace fairdrift
