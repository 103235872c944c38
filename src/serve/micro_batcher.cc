#include "serve/micro_batcher.h"

#include <algorithm>

namespace fairdrift {

MicroBatcher::MicroBatcher(RequestQueue* queue, const BatchingOptions& options)
    : queue_(queue), options_(options) {
  options_.max_batch_size = std::max<size_t>(1, options_.max_batch_size);
  if (options_.max_batch_delay.count() < 0) {
    options_.max_batch_delay = std::chrono::microseconds{0};
  }
}

size_t MicroBatcher::NextBatch(std::vector<PendingRequest>* out) {
  out->clear();
  // A batch of one row never waits: the coalescing window only matters
  // when there is room to coalesce into.
  auto window = options_.max_batch_size == 1
                    ? std::chrono::nanoseconds{0}
                    : std::chrono::nanoseconds(options_.max_batch_delay);
  return queue_->PopBatch(options_.max_batch_size, window, out);
}

}  // namespace fairdrift
