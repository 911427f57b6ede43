#include "daf/steal.h"

#include "util/timer.h"

namespace daf {

StealScheduler::StealScheduler(uint32_t num_workers, uint32_t split_threshold)
    : slots_(num_workers == 0 ? 1 : num_workers),
      split_threshold_(split_threshold == 0 ? 1 : split_threshold) {}

void StealScheduler::Seed(SubtreeTask task) {
  {
    std::lock_guard<std::mutex> lock(slots_[0].mutex);
    slots_[0].deque.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_relaxed);
}

void StealScheduler::Donate(uint32_t worker, SubtreeTask task) {
  WorkerSlot& slot = slots_[worker];
  {
    std::lock_guard<std::mutex> lock(slot.mutex);
    slot.deque.push_back(std::move(task));
    ++slot.stats.donations;
  }
  pending_.fetch_add(1, std::memory_order_release);
  // Serialize against a waiter that checked pending_ and is about to
  // sleep: taking the sleep mutex (even briefly) before notifying closes
  // the missed-wakeup window.
  std::lock_guard<std::mutex> lock(sleep_mutex_);
  sleep_cv_.notify_one();
}

bool StealScheduler::TryPopOwn(uint32_t worker, SubtreeTask* out) {
  WorkerSlot& slot = slots_[worker];
  std::lock_guard<std::mutex> lock(slot.mutex);
  if (slot.deque.empty()) return false;
  // Newest first: the most recently donated range shares the most prefix
  // state with what this worker just computed.
  *out = std::move(slot.deque.back());
  slot.deque.pop_back();
  return true;
}

bool StealScheduler::TrySteal(uint32_t thief, SubtreeTask* out) {
  for (uint32_t k = 0; k + 1 < num_workers(); ++k) {
    WorkerSlot& victim = slots_[steal_victim(thief, k)];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (victim.deque.empty()) continue;
    // Oldest first: the earliest donation came from the shallowest frame,
    // i.e. the largest pending piece of the victim's subtree.
    *out = std::move(victim.deque.front());
    victim.deque.pop_front();
    ++slots_[thief].stats.steals;
    return true;
  }
  return false;
}

std::optional<SubtreeTask> StealScheduler::GetTask(uint32_t worker) {
  WorkerSlot& slot = slots_[worker];
  while (true) {
    if (stop_.load(std::memory_order_acquire)) return std::nullopt;
    SubtreeTask task;
    if (TryPopOwn(worker, &task) ||
        (pending_.load(std::memory_order_acquire) > 0 &&
         TrySteal(worker, &task))) {
      pending_.fetch_sub(1, std::memory_order_relaxed);
      ++slot.stats.tasks_executed;
      return task;
    }
    Stopwatch idle_timer;
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    idle_.fetch_add(1, std::memory_order_release);
    if (idle_.load(std::memory_order_relaxed) == num_workers() &&
        pending_.load(std::memory_order_acquire) == 0) {
      // Every worker is parked and no deque holds work: nobody can produce
      // more tasks, so the run is complete.
      done_ = true;
      idle_.fetch_sub(1, std::memory_order_relaxed);
      slot.stats.idle_ms += idle_timer.ElapsedMs();
      sleep_cv_.notify_all();
      return std::nullopt;
    }
    sleep_cv_.wait(lock, [&] {
      return done_ || stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    idle_.fetch_sub(1, std::memory_order_relaxed);
    slot.stats.idle_ms += idle_timer.ElapsedMs();
    if (done_) return std::nullopt;
  }
}

void StealScheduler::RequestStop() {
  stop_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(sleep_mutex_);
  sleep_cv_.notify_all();
}

}  // namespace daf
