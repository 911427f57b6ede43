#ifndef DAF_OBS_SERVICE_METRICS_H_
#define DAF_OBS_SERVICE_METRICS_H_

#include <array>
#include <cstdint>
#include <string>

namespace daf::obs {

class JsonWriter;  // obs/json.h

/// A fixed-size log-scale latency histogram (base-2 buckets from 1 µs to
/// ~78 hours) plus exact min/max/sum. Plain value type: the owner (e.g.
/// MatchService) guards concurrent Record calls with its own lock and hands
/// out copies as snapshots. Quantiles are resolved to a bucket's upper
/// bound, clamped to the exact observed max, so reported percentiles never
/// exceed the true maximum and are at most one power of two coarse.
class LatencyHistogram {
 public:
  static constexpr int kNumBuckets = 48;

  /// Records one latency sample (milliseconds; negatives clamp to 0).
  void Record(double ms);

  /// Merges another histogram into this one.
  void MergeFrom(const LatencyHistogram& other);

  uint64_t count() const { return count_; }
  double sum_ms() const { return sum_ms_; }
  double min_ms() const { return count_ == 0 ? 0 : min_ms_; }
  double max_ms() const { return max_ms_; }
  double mean_ms() const {
    return count_ == 0 ? 0 : sum_ms_ / static_cast<double>(count_);
  }

  /// The latency bound below which a `q` fraction of samples fall
  /// (q in [0, 1]); 0 when empty.
  double Quantile(double q) const;

  /// Upper bound (ms) of bucket i: 0.001 * 2^i.
  static double BucketUpperBound(int i);

 private:
  std::array<uint64_t, kNumBuckets> buckets_{};
  uint64_t count_ = 0;
  double sum_ms_ = 0;
  double min_ms_ = 0;
  double max_ms_ = 0;
};

/// Monotonic per-outcome job counters of a MatchService. `submitted` counts
/// every Submit call; each job eventually lands in exactly one of the
/// terminal counters (rejected jobs never enter the queue).
struct ServiceCounters {
  uint64_t submitted = 0;
  uint64_t rejected = 0;   // admission-queue overflow or shutdown
  uint64_t completed = 0;  // ran to a normal MatchResult (incl. limit hits)
  uint64_t cancelled = 0;  // cancel observed while queued or mid-search
  uint64_t timed_out = 0;  // per-job deadline expired (queued or running)
  uint64_t failed = 0;     // the engine reported an error
  uint64_t resource_exhausted = 0;  // per-job memory budget exhausted
  /// Jobs run through the intra-query parallel engine (interactive-priority
  /// jobs when ServiceOptions::intra_query_threads > 1). Not a terminal
  /// outcome — such a job also lands in one of the counters above.
  uint64_t parallel_jobs = 0;
};

/// A point-in-time copy of a MatchService's metrics: cheap to take (one
/// lock, plain copies) and safe to read after the service is gone.
struct ServiceMetricsSnapshot {
  ServiceCounters counters;
  uint64_t queue_depth = 0;   // jobs admitted but not yet picked up
  uint32_t running = 0;       // jobs currently on a worker
  uint32_t workers = 0;       // worker-pool size
  uint64_t embeddings_streamed = 0;  // embeddings delivered through handles
  // Resource governance (see docs/ROBUSTNESS.md).
  uint64_t watchdog_fires = 0;      // jobs force-cancelled past grace
  uint64_t budget_rejections = 0;   // over-limit charges across all jobs
  uint64_t peak_job_bytes = 0;      // largest per-job budget high-water
  uint64_t global_memory_used = 0;  // service-global ledger right now
  uint64_t global_memory_limit = 0; // service-global limit (0 = unlimited)
  uint32_t pool_peak_in_use = 0;    // context-pool high-water mark
  uint32_t pool_capacity = 0;       // context-pool size
  // Cross-query plan/CS cache (all zero when cache_enabled is false). The
  // classification invariant hits + misses + coalesced == lookups holds in
  // every snapshot.
  bool cache_enabled = false;
  uint64_t cache_lookups = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_coalesced = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_insert_failures = 0;
  uint64_t cache_uncacheable = 0;
  uint64_t cache_resident_bytes = 0;
  uint64_t cache_entries = 0;
  // Dynamic-graph subsystem (docs/DYNAMIC.md); all zero until the first
  // ApplyUpdates or Subscribe.
  uint64_t graph_version = 0;         // update batches applied (graph is v0)
  uint64_t dyn_batches_applied = 0;   // successful ApplyUpdates calls
  uint64_t dyn_batches_rejected = 0;  // invalid batches / injected faults
  uint64_t dyn_cs_incremental = 0;    // per-subscription incremental passes
  uint64_t dyn_cs_rebuilds = 0;       // full-rebuild fallbacks
  uint64_t dyn_dirty_pairs = 0;       // total dirty (u, v) pairs maintained
  uint64_t dyn_peak_dirty_pairs = 0;  // largest single maintenance pass
  uint64_t dyn_embeddings_created = 0;    // deltas streamed, positive
  uint64_t dyn_embeddings_destroyed = 0;  // deltas streamed, negative
  uint64_t dyn_active_subscriptions = 0;  // standing queries right now
  uint64_t dyn_resyncs = 0;  // notifications degraded to resync markers
  // Durable state (docs/PERSISTENCE.md); all zero when persist_enabled is
  // false (memory-only service).
  bool persist_enabled = false;
  uint64_t persist_wal_bytes = 0;  // bytes in the active WAL segment
  uint64_t persist_wal_appended_batches = 0;  // batches logged since open
  uint64_t persist_wal_fsyncs = 0;
  uint64_t persist_snapshots_written = 0;  // checkpoints (incl. the seed)
  uint64_t persist_errors = 0;             // non-fatal IO errors
  bool persist_failed = false;             // fail-stop latch tripped
  double persist_last_snapshot_ms = 0;     // wall time of the last checkpoint
  bool persist_recovered = false;          // prior state restored at open
  uint64_t persist_recovery_snapshot_version = 0;
  uint64_t persist_recovery_wal_replayed = 0;
  uint64_t persist_recovery_wal_truncated_bytes = 0;
  double persist_recovery_ms = 0;  // load + replay + build
  double persist_recovery_load_ms = 0;
  double persist_recovery_replay_ms = 0;
  double persist_recovery_build_ms = 0;
  LatencyHistogram wait;   // submission -> worker pickup
  LatencyHistogram run;    // worker pickup -> terminal state
  LatencyHistogram total;  // submission -> terminal state
  LatencyHistogram notify;  // per-subscription delta notification latency
  LatencyHistogram publish;  // per-batch snapshot materialize + publish
};

/// Emits a snapshot as an object value at the writer's current position.
void WriteServiceMetrics(JsonWriter& w, const ServiceMetricsSnapshot& m);

/// Serializes a snapshot as a standalone JSON document.
std::string ServiceMetricsToJson(const ServiceMetricsSnapshot& m,
                                 int indent = 2);

}  // namespace daf::obs

#endif  // DAF_OBS_SERVICE_METRICS_H_
