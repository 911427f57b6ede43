#ifndef DAF_SERVICE_JOB_STATE_H_
#define DAF_SERVICE_JOB_STATE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "service/job.h"
#include "util/stop.h"
#include "util/timer.h"

namespace daf::service::internal {

/// The shared state behind one submitted job, co-owned by the MatchService
/// (until the job reaches a terminal state) and every JobHandle copy. Not
/// part of the public API — user code goes through JobHandle.
///
/// Locking: fields in the "guarded" block are protected by `mutex`; the
/// identity block is immutable after Submit; `status` and `cancel` are
/// atomics readable without the lock. The worker publishes `result`,
/// `profile`, `wait_ms`, `run_ms` and `graph_version` before setting
/// `finished` under the lock, so any reader that observed `finished` (or a
/// terminal `status` via JobHandle::Wait) reads them race-free.
struct JobState {
  // --- Identity: immutable after Submit.
  uint64_t id = 0;
  Priority priority = Priority::kNormal;
  Graph query;
  MatchOptions options;  // limit/deadline already folded in by Submit
  uint64_t deadline_ms = 0;
  bool stream = false;
  uint64_t memory_limit = 0;  // per-job budget bytes (0 = unlimited)
  bool bypass_cache = false;  // QueryJob::bypass_cache

  // --- Lock-free control plane.
  CancelToken cancel;
  std::atomic<JobStatus> status{JobStatus::kQueued};
  // Set once by the watchdog when it force-cancels this job (at most one
  // fire per job; the exchange is the claim).
  std::atomic<bool> watchdog_fired{false};
  Stopwatch since_submit;  // started by Submit

  // --- Guarded by `mutex`.
  std::mutex mutex;
  std::condition_variable producer_cv;  // buffer space / cancel / close
  std::condition_variable consumer_cv;  // buffer data / terminal state
  std::deque<std::vector<VertexId>> buffer;  // streamed embeddings
  bool consumer_closed = false;  // JobHandle::CloseStream
  bool finished = false;         // terminal state reached; result valid
  uint64_t start_seq = 0;        // global worker-pickup order (0 = never)
  uint64_t delivered = 0;        // embeddings handed to the consumer
  double wait_ms = 0;            // submission -> pickup
  double run_ms = 0;             // pickup -> terminal
  uint64_t peak_bytes = 0;          // budget high-water of the run
  uint64_t budget_rejections = 0;   // over-limit charges of the run
  CacheOutcome cache_outcome = CacheOutcome::kNone;  // plan/CS cache verdict
  uint64_t graph_version = 0;    // version of the snapshot the run matched
  MatchResult result;
  obs::SearchProfile profile;

  /// Backpressure bound of the streaming buffer (embeddings, not bytes).
  static constexpr size_t kBufferCapacity = 1024;
};

using JobStatePtr = std::shared_ptr<JobState>;

}  // namespace daf::service::internal

#endif  // DAF_SERVICE_JOB_STATE_H_
