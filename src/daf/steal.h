#ifndef DAF_DAF_STEAL_H_
#define DAF_DAF_STEAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace daf {

/// One splittable unit of parallel search: a partial-embedding prefix (the
/// (query vertex, candidate index) pairs mapped above the split depth, in
/// mapping order) plus an unexplored range of the split vertex's extendable
/// candidates. The executor replays the prefix through Map() — which
/// deterministically rebuilds the extendable-candidate lists — and then
/// enumerates indices [begin, end) of extendable_cands[u].
///
/// The seed task of a run leaves `u` invalid with an empty prefix: the
/// executor then selects the first extendable vertex itself and owns its
/// full candidate range.
struct SubtreeTask {
  std::vector<std::pair<VertexId, uint32_t>> prefix;
  VertexId u = kInvalidVertex;  // split vertex; invalid = seed task
  uint32_t begin = 0;           // candidate index range into C_M(u)
  uint32_t end = 0;
};

/// Per-worker scheduler counters (diagnostics; stable once workers joined).
struct StealWorkerStats {
  uint64_t tasks_executed = 0;  // tasks this worker ran (own + stolen)
  uint64_t steals = 0;          // tasks taken from another worker's deque
  uint64_t donations = 0;       // ranges this worker split off and published
  double idle_ms = 0;           // time spent waiting for work
};

/// Work distribution for the parallel backtracker: each worker owns a deque
/// of SubtreeTasks. A worker donates (pushes to its own deque) only while
/// some other worker is hungry — WantsWork() is a pair of relaxed atomic
/// loads, cheap enough for the search's inner loop — and donates from its
/// *shallowest* splittable frame, so published ranges are the largest
/// pending pieces of its subtree. Idle workers first drain their own deque
/// (newest first), then sweep the other deques oldest-first, stealing the
/// shallowest pending range of the first victim that has one.
///
/// GetTask blocks until a task is available, every worker is idle with all
/// deques empty (run complete), or a stop is requested; the last worker to
/// go idle detects termination and wakes the rest. RequestStop() makes all
/// current and future GetTask calls return nullopt promptly — the limit /
/// deadline / cancel path: abandoned tasks are simply never executed, which
/// is sound because a stopped run reports itself incomplete.
class StealScheduler {
 public:
  /// `split_threshold` is the minimum number of unclaimed sibling
  /// candidates a frame must have to be splittable; 1 donates maximally
  /// eagerly (every pending candidate is up for grabs — the forced-steal
  /// stress configuration).
  StealScheduler(uint32_t num_workers, uint32_t split_threshold);

  StealScheduler(const StealScheduler&) = delete;
  StealScheduler& operator=(const StealScheduler&) = delete;

  /// Enqueues the initial task (worker 0's deque). Call before workers run.
  void Seed(SubtreeTask task);

  /// True while some worker is hungry (more workers idle than tasks
  /// pending). Donation sites poll this before paying for a split.
  bool WantsWork() const {
    return idle_.load(std::memory_order_relaxed) >
           pending_.load(std::memory_order_relaxed);
  }

  /// Publishes a split-off range to `worker`'s own deque (newest end).
  void Donate(uint32_t worker, SubtreeTask task);

  /// Next task for `worker`: own deque first (newest-first), then a steal
  /// sweep over the other workers (oldest-first = shallowest range), else
  /// blocks. Returns nullopt when the run is complete or stopped.
  std::optional<SubtreeTask> GetTask(uint32_t worker);

  /// Requests global termination (limit reached, deadline, cancel).
  void RequestStop();
  bool stop_requested() const {
    return stop_.load(std::memory_order_relaxed);
  }

  uint32_t split_threshold() const { return split_threshold_; }
  uint32_t num_workers() const { return static_cast<uint32_t>(slots_.size()); }

  /// Stable after every worker returned from its final GetTask.
  const StealWorkerStats& worker_stats(uint32_t worker) const {
    return slots_[worker].stats;
  }

  /// The k-th victim (k in [0, num_workers() - 1)) of one thief's steal
  /// sweep: the plain ring (thief + 1 + k) % num_workers().
  uint32_t steal_victim(uint32_t thief, uint32_t k) const {
    return (thief + 1 + k) % num_workers();
  }

 private:
  struct WorkerSlot {
    std::mutex mutex;
    std::deque<SubtreeTask> deque;
    StealWorkerStats stats;
  };

  bool TryPopOwn(uint32_t worker, SubtreeTask* out);
  bool TrySteal(uint32_t thief, SubtreeTask* out);

  std::vector<WorkerSlot> slots_;
  const uint32_t split_threshold_;
  std::atomic<uint32_t> pending_{0};  // tasks sitting in some deque
  std::atomic<uint32_t> idle_{0};     // workers blocked in GetTask
  std::atomic<bool> stop_{false};
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  bool done_ = false;  // all workers idle with no pending tasks
};

}  // namespace daf

#endif  // DAF_DAF_STEAL_H_
