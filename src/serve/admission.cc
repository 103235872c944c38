#include "serve/admission.h"

#include <chrono>
#include <cmath>

namespace fairdrift {

Status AdmissionController::Admit(
    const RequestQueue& queue, std::chrono::steady_clock::time_point now,
    std::chrono::steady_clock::time_point deadline,
    double ewma_batch_latency_ns, size_t max_batch_size,
    size_t concurrent_batches, size_t rows) const {
  if (deadline <= now) {
    return Status::DeadlineExceeded("admission: deadline already passed");
  }
  RequestQueue::State state = queue.Observe();  // one lock, both facts
  if (state.closed) {
    return Status::Unavailable("admission: server stopped");
  }
  if (rows > options_.max_queue_depth ||
      state.size > options_.max_queue_depth - rows) {
    return Status::Unavailable("admission: queue depth limit reached");
  }
  if (options_.cost_aware && ewma_batch_latency_ns > 0.0 &&
      deadline != std::chrono::steady_clock::time_point::max()) {
    // The unit waits behind floor(rows queued / max_batch_size) *full*
    // batches, up to concurrent_batches of which score at once — each
    // wave costs about one EWMA batch latency. Deadlines are enforced
    // only until the request's own batch starts scoring (the worker's
    // cull), so neither its own batch nor the partial batch it would
    // coalesce into is counted: an idle or lightly loaded server never
    // refuses tight-deadline traffic. A request whose deadline the
    // queue-drain prediction already overruns would only expire in the
    // queue — shed it at the door instead.
    size_t batch = max_batch_size == 0 ? 1 : max_batch_size;
    size_t lanes = concurrent_batches == 0 ? 1 : concurrent_batches;
    size_t full_batches_ahead = state.size / batch;
    double waves = std::ceil(static_cast<double>(full_batches_ahead) /
                             static_cast<double>(lanes));
    auto predicted_wait = std::chrono::nanoseconds(
        static_cast<int64_t>(waves * ewma_batch_latency_ns));
    if (now + predicted_wait > deadline) {
      return Status::DeadlineExceeded(
          "admission: predicted queue wait exceeds the request deadline");
    }
  }
  return Status::OK();
}

std::chrono::steady_clock::time_point AdmissionController::ResolveDeadline(
    std::chrono::steady_clock::time_point now,
    std::chrono::nanoseconds deadline_after) const {
  using Clock = std::chrono::steady_clock;
  // Each deadline is compared against the room left on the clock before
  // it is added: past the clock's range the sum would overflow, and such
  // a deadline means none.
  const Clock::duration room = Clock::time_point::max() - now;
  if (deadline_after.count() <= 0) {
    const std::chrono::microseconds fallback = options_.default_deadline;
    if (fallback.count() <= 0 ||
        fallback >= std::chrono::duration_cast<std::chrono::microseconds>(
                        room)) {
      return Clock::time_point::max();
    }
    return now + fallback;
  }
  if (deadline_after >= room) return Clock::time_point::max();
  return now + deadline_after;
}

}  // namespace fairdrift
