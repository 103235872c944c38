// AdmissionController: shed-on-overload at the server's front door.
//
// A bounded queue plus typed refusals keep the serving process stable
// under overload: rather than letting latency grow without bound, excess
// requests are refused *synchronously* at Submit with
// Status::Unavailable (queue depth exceeded) or Status::DeadlineExceeded
// (the request's deadline already passed — scoring it would be wasted
// work). Requests that pass admission can still be shed later by the
// batch worker if their deadline expires while queued.
//
// The unit of admission is a run of 1..N rows (one Submit): it is
// admitted or refused whole, and every bound counts rows.
//
// Cost-aware shedding: beyond the raw depth bound, Admit predicts the
// request's queueing delay — the batches already ahead of it times the
// EWMA batch scoring latency from ServerStats — and refuses deadlined
// requests that would predictably expire before a worker reaches them.
// Under heavy overload this sheds at the door instead of letting doomed
// requests consume queue slots and batch culling work.

#ifndef FAIRDRIFT_SERVE_ADMISSION_H_
#define FAIRDRIFT_SERVE_ADMISSION_H_

#include <chrono>

#include "serve/request_queue.h"
#include "util/status.h"

namespace fairdrift {

/// Admission policy knobs.
struct AdmissionOptions {
  /// Hard bound on queued rows (the RequestQueue capacity). A unit whose
  /// rows would take the queue past it sheds whole with
  /// Status::Unavailable.
  size_t max_queue_depth = 4096;
  /// Deadline attached to requests submitted without one. Zero = none.
  std::chrono::microseconds default_deadline{0};
  /// Shed deadlined requests whose *predicted* queue wait (batches ahead
  /// x EWMA batch latency) already exceeds their deadline. Only bites
  /// once the server has scored at least one batch (the EWMA has a
  /// sample) and the request carries a deadline.
  bool cost_aware = true;
};

/// Stateless front-door policy over a RequestQueue's observable state.
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionOptions& options)
      : options_(options) {}

  /// Decides whether a unit of `rows` rows with `deadline`
  /// (time_point::max() = none) may enter `queue` as of `now`. OK means
  /// "attempt the push" — a racing fill can still refuse, which the
  /// server reports as the same typed Unavailable. The depth bound
  /// refuses a unit whose rows would take the queued row count past
  /// max_queue_depth. `ewma_batch_latency_ns`
  /// (ServerStats::EwmaBatchLatencyNs; 0 = no signal yet),
  /// `max_batch_size`, and `concurrent_batches` (the server's in-flight
  /// batch limit) feed the cost-aware prediction: with Q rows queued,
  /// the unit waits behind floor(Q/max_batch_size) full batches draining
  /// `concurrent_batches` at a time, each wave costing ~the EWMA.
  /// Neither the unit's own batch nor the partial batch it would
  /// coalesce into is counted — deadlines stop applying once its batch
  /// starts scoring — so idle and lightly loaded servers never
  /// cost-shed. If the predicted wait overruns the deadline, the unit is
  /// shed now with Status::DeadlineExceeded instead of expiring in the
  /// queue.
  Status Admit(const RequestQueue& queue,
               std::chrono::steady_clock::time_point now,
               std::chrono::steady_clock::time_point deadline,
               double ewma_batch_latency_ns = 0.0,
               size_t max_batch_size = 1,
               size_t concurrent_batches = 1, size_t rows = 1) const;

  /// Resolves a caller-relative deadline against the default policy:
  /// zero → default_deadline (or none when that is zero too). A deadline
  /// beyond the clock's range saturates to time_point::max(), i.e. none.
  std::chrono::steady_clock::time_point ResolveDeadline(
      std::chrono::steady_clock::time_point now,
      std::chrono::nanoseconds deadline_after) const;

  const AdmissionOptions& options() const { return options_; }

 private:
  AdmissionOptions options_;
};

}  // namespace fairdrift

#endif  // FAIRDRIFT_SERVE_ADMISSION_H_
