#include "serve/ticket.h"

namespace fairdrift {

namespace serve_internal {

void TicketState::Resolve(size_t n) {
  {
    std::lock_guard<std::mutex> lock(mu);
    unresolved -= n;
    if (unresolved != 0) return;
    done = true;
  }
  cv.notify_all();
}

}  // namespace serve_internal

Result<ScoreResult> ScoreTicket::Wait() const { return Wait(0); }

Result<ScoreResult> ScoreTicket::Wait(size_t row) const {
  if (!state_) {
    return Status::FailedPrecondition("ScoreTicket: empty ticket");
  }
  if (row >= state_->count) {
    return Status::FailedPrecondition("ScoreTicket: row past the unit");
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  const serve_internal::RowSlot& slot = state_->row(row);
  if (!slot.error.ok()) return slot.error;
  return slot.result;
}

bool ScoreTicket::WaitFor(std::chrono::nanoseconds timeout) const {
  if (!state_) return false;
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_for(lock, timeout, [this] { return state_->done; });
}

bool ScoreTicket::done() const {
  if (!state_) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

}  // namespace fairdrift
