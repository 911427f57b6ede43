#ifndef DAF_UTIL_PUBLISH_CELL_H_
#define DAF_UTIL_PUBLISH_CELL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

namespace daf {

/// A single-writer, many-reader publication point for an immutable object
/// held by shared_ptr. Load never waits: it is two atomic counter updates
/// around a shared_ptr copy. Store (externally serialized) fills the empty slot,
/// flips readers to it, then waits out the readers still copying from the
/// old slot — a few instructions each — and empties it, so the cell holds
/// only the current value.
///
/// std::atomic<std::shared_ptr> offers the same contract, but libstdc++ 12
/// releases its internal lock bit after a load with a relaxed store, a
/// data race with the next store that ThreadSanitizer reports.
template <typename T>
class PublishCell {
 public:
  PublishCell() = default;
  PublishCell(const PublishCell&) = delete;
  PublishCell& operator=(const PublishCell&) = delete;

  /// The most recently stored value (null before the first Store).
  std::shared_ptr<const T> Load() const {
    readers_.fetch_add(1);
    std::shared_ptr<const T> value = slots_[active_.load()];
    readers_.fetch_sub(1);
    return value;
  }

  /// Publishes `value`; later Loads return it. Callers serialize Stores.
  void Store(std::shared_ptr<const T> value) {
    const uint32_t old = active_.load();
    // No reader is in the other slot: the previous Store waited them all
    // out before emptying it.
    slots_[old ^ 1] = std::move(value);
    active_.store(old ^ 1);
    // Every reader that picked `old` was counted before the flip, so one
    // moment at zero proves them all gone.
    while (readers_.load() != 0) std::this_thread::yield();
    slots_[old].reset();
  }

 private:
  mutable std::atomic<uint32_t> readers_{0};
  std::atomic<uint32_t> active_{0};
  std::shared_ptr<const T> slots_[2];
};

}  // namespace daf

#endif  // DAF_UTIL_PUBLISH_CELL_H_
