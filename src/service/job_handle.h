#ifndef DAF_SERVICE_JOB_HANDLE_H_
#define DAF_SERVICE_JOB_HANDLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "service/job_state.h"

namespace daf::service {

/// The caller's view of one submitted job. Cheap to copy (all copies share
/// the job's state) and safe to keep after the MatchService is gone — the
/// service resolves every admitted job to a terminal state before its
/// destructor returns.
///
/// Thread safety: Status/Wait/Cancel/result may be called from any thread;
/// the streaming side (NextBatch/TryNextBatch/CloseStream) is
/// single-consumer. A streamed job's search runs on the service worker,
/// which blocks while the handle's buffer is full.
class JobHandle {
 public:
  /// An empty handle (valid() false); Submit never returns one.
  JobHandle() = default;

  bool valid() const { return state_ != nullptr; }
  uint64_t id() const { return state_->id; }
  Priority priority() const { return state_->priority; }

  /// Non-blocking status probe.
  JobStatus Status() const {
    return state_->status.load(std::memory_order_acquire);
  }

  /// True once the job reached a terminal state.
  bool Done() const { return IsTerminal(Status()); }

  /// Requests cooperative cancellation. Non-blocking; the job resolves to
  /// kCancelled within a few thousand search-node expansions when running
  /// (or when a worker pops it, if still queued). A job whose search
  /// already finished stays kDone — cancellation never un-completes work.
  void Cancel();

  /// Blocks until the job is terminal and returns the final status.
  JobStatus Wait();

  /// Blocks up to `timeout_ms`; returns the status at that point (possibly
  /// still kQueued/kRunning).
  JobStatus WaitFor(uint64_t timeout_ms);

  /// Streamed embeddings: up to `max` embeddings, blocking until at least
  /// one is available or the job is terminal with a drained buffer (then
  /// returns empty — the stream's end). Only meaningful for jobs submitted
  /// with `stream_embeddings`; count-only jobs return empty immediately
  /// after completion.
  std::vector<std::vector<VertexId>> NextBatch(size_t max = 256);

  /// Non-blocking variant: whatever is buffered right now (up to `max`).
  std::vector<std::vector<VertexId>> TryNextBatch(size_t max = 256);

  /// Abandons the stream: buffered embeddings are dropped and the search
  /// stops at its next embedding (reported as `limit_reached`). The job
  /// still resolves and its result stays readable.
  void CloseStream();

  /// Blocks until terminal, then the final MatchResult. On kCancelled /
  /// kTimedOut the result carries partial counts with Complete() == false;
  /// on kRejected it is a default result with ok == false.
  const MatchResult& Result();

  /// Blocks until terminal, then the job's SearchProfile (all-zero when the
  /// service was configured with collect_profiles off or the job never
  /// ran).
  const obs::SearchProfile& Profile();

  /// Queue wait / worker run time in ms; valid once the job is terminal.
  double wait_ms() const { return state_->wait_ms; }
  double run_ms() const { return state_->run_ms; }

  /// Global worker-pickup order (1-based; 0 = never picked up). Exposes the
  /// scheduling decision for tests and load analysis.
  uint64_t start_seq() const { return state_->start_seq; }

  /// How the cross-query plan/CS cache served this job (kNone when the
  /// cache is disabled, bypassed, or the job never ran). Valid once the job
  /// is terminal.
  CacheOutcome cache_outcome() const { return state_->cache_outcome; }

  /// The graph version of the snapshot the job matched against: Result()
  /// equals a from-scratch match at that version (0 when the job never
  /// ran). Valid once the job is terminal.
  uint64_t graph_version() const { return state_->graph_version; }

 private:
  friend class MatchService;
  explicit JobHandle(internal::JobStatePtr state)
      : state_(std::move(state)) {}

  internal::JobStatePtr state_;
};

}  // namespace daf::service

#endif  // DAF_SERVICE_JOB_HANDLE_H_
