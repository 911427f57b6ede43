#include "service/context_pool.h"

#include <algorithm>

#include "util/fault_inject.h"

namespace daf::service {

ContextPool::ContextPool(uint32_t capacity, uint64_t retained_bytes_limit)
    : retained_bytes_limit_(retained_bytes_limit) {
  capacity = std::max(capacity, 1u);
  contexts_.reserve(capacity);
  free_.reserve(capacity);
  for (uint32_t i = 0; i < capacity; ++i) {
    contexts_.push_back(std::make_unique<MatchContext>());
    free_.push_back(contexts_.back().get());
  }
}

ContextPool::Lease& ContextPool::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    context_ = other.context_;
    other.pool_ = nullptr;
    other.context_ = nullptr;
  }
  return *this;
}

void ContextPool::Lease::Release() {
  if (context_ != nullptr) {
    pool_->Return(context_);
    pool_ = nullptr;
    context_ = nullptr;
  }
}

ContextPool::Lease ContextPool::Acquire() {
  MatchContext* context;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    available_cv_.wait(lock, [&] { return !free_.empty(); });
    context = free_.back();
    free_.pop_back();
    ++in_use_;
    peak_in_use_ = std::max(peak_in_use_, in_use_);
  }
  // Simulated lease fault: the context lost its warmth (as if the pool had
  // to rebuild it); the job still runs, just cold.
  if (FAULT_POINT(context_pool_lease)) context->Trim();
  return Lease(this, context);
}

uint32_t ContextPool::available() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<uint32_t>(free_.size());
}

uint32_t ContextPool::peak_in_use() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peak_in_use_;
}

void ContextPool::Return(MatchContext* context) {
  // Footprint shedding (outside the lock: the context is still exclusively
  // ours until it joins the free list).
  if (retained_bytes_limit_ > 0 &&
      context->arena_stats().capacity_bytes > retained_bytes_limit_) {
    context->ShrinkTo(retained_bytes_limit_);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(context);
    --in_use_;
  }
  available_cv_.notify_one();
}

}  // namespace daf::service
