#include "service/subscription.h"

#include <utility>

namespace daf::service {

namespace internal {

bool PushDeltaBatch(SubscriptionState& sub, DeltaBatch batch) {
  std::lock_guard<std::mutex> lock(sub.mutex);
  if (sub.pending.size() >= sub.max_pending) {
    // The consumer fell behind by a full queue. Partial delivery would be
    // worse than none (the fold would silently diverge), so drop the whole
    // backlog and leave one resync marker at the newest version.
    sub.dropped_batches += sub.pending.size() + 1;
    sub.pending.clear();
    DeltaBatch marker;
    marker.version = batch.version;
    marker.resync = true;
    sub.pending.push_back(std::move(marker));
    return false;
  }
  const bool resync = batch.resync;
  if (resync) ++sub.dropped_batches;
  sub.pending.push_back(std::move(batch));
  ++sub.delivered_batches;
  return !resync;
}

}  // namespace internal

void SubscriptionHandle::Unsubscribe() {
  if (!state_->cancelled.exchange(true, std::memory_order_acq_rel) &&
      state_->active_count != nullptr) {
    state_->active_count->fetch_sub(1, std::memory_order_acq_rel);
  }
}

std::optional<DeltaBatch> SubscriptionHandle::Poll() {
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (state_->pending.empty()) return std::nullopt;
  DeltaBatch batch = std::move(state_->pending.front());
  state_->pending.pop_front();
  return batch;
}

std::vector<DeltaBatch> SubscriptionHandle::Drain() {
  std::vector<DeltaBatch> out;
  std::lock_guard<std::mutex> lock(state_->mutex);
  out.reserve(state_->pending.size());
  while (!state_->pending.empty()) {
    out.push_back(std::move(state_->pending.front()));
    state_->pending.pop_front();
  }
  return out;
}

size_t SubscriptionHandle::PendingBatches() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->pending.size();
}

}  // namespace daf::service
