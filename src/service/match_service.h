#ifndef DAF_SERVICE_MATCH_SERVICE_H_
#define DAF_SERVICE_MATCH_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dyn/delta_graph.h"
#include "graph/graph.h"
#include "obs/service_metrics.h"
#include "persist/store.h"
#include "service/admission_queue.h"
#include "util/memory_budget.h"
#include "util/publish_cell.h"
#include "service/context_pool.h"
#include "service/job.h"
#include "service/job_handle.h"
#include "service/query_cache.h"
#include "service/subscription.h"

namespace daf::service {

/// Sizing and policy knobs of a MatchService.
struct ServiceOptions {
  /// Worker threads; each concurrently running job occupies one worker and
  /// one pooled MatchContext.
  uint32_t num_workers = 4;
  /// Admission-queue bound shared across priority lanes; submissions beyond
  /// it are rejected (load shedding), never blocked.
  size_t queue_capacity = 256;
  /// Default end-to-end deadline applied when a job does not set its own
  /// (0 = none).
  uint64_t default_deadline_ms = 0;
  /// Default embedding limit applied when neither the job nor its
  /// MatchOptions set one (0 = enumerate all).
  uint64_t default_limit = 0;
  /// Collect a SearchProfile per job (readable via JobHandle::Profile).
  bool collect_profiles = true;
  /// Opt-in intra-query parallelism for latency-critical work: when > 1,
  /// non-streaming Priority::kInteractive jobs run through the
  /// work-stealing parallel engine with this many threads instead of the
  /// single-threaded engine. The threads are spawned per job (on top of the
  /// worker pool), so size num_workers * intra_query_threads to the
  /// machine. 1 (the default) keeps every job single-threaded.
  uint32_t intra_query_threads = 1;

  // --- Resource governance (docs/ROBUSTNESS.md).

  /// Default per-job memory budget in bytes, applied when the job does not
  /// set QueryJob::max_memory_bytes (0 = unlimited). An exceeding job
  /// terminates as kResourceExhausted with partial counts.
  uint64_t job_memory_limit_bytes = 0;
  /// Service-global memory limit across all concurrently running jobs
  /// (0 = unlimited). Going over exhausts the *charging* job only; the
  /// global ledger recovers when that job releases.
  uint64_t service_memory_limit_bytes = 0;
  /// Footprint-shedding threshold of the context pool: a context returning
  /// with more retained arena capacity is shrunk back to this many bytes
  /// (0 = never shed; contexts keep their high-water footprint warm).
  uint64_t context_retained_bytes = 0;
  /// Watchdog scan period in milliseconds (0 disables the watchdog).
  uint64_t watchdog_interval_ms = 100;
  /// Grace past a job's deadline_ms before the watchdog force-cancels it
  /// (covers the engine's poll cadence plus scheduling noise).
  uint64_t watchdog_grace_ms = 1000;

  // --- Cross-query plan/CS cache (docs/SERVICE.md).

  /// Enables the canonical-key PreparedQuery cache: jobs whose queries are
  /// isomorphic (any vertex relabeling) to an already-served pattern skip
  /// BuildDAG and CS construction, leasing the shared blob read-only.
  /// Results are identical to cold builds; QueryJob::bypass_cache opts a
  /// single job out.
  bool enable_query_cache = true;
  /// Resident-bytes cap of the cache (0 = unlimited). Resident bytes are
  /// also charged against service_memory_limit_bytes when that is set, with
  /// LRU eviction keeping headroom for running jobs.
  uint64_t cache_max_resident_bytes = 64ull << 20;
  /// Cache shards (lock-contention knob).
  uint32_t cache_shards = 8;
  /// Leaf cap of the canonicalizer's individualization search. A query
  /// whose canonization overruns it is served cold (uncacheable), never
  /// incorrectly.
  uint64_t cache_canonical_max_leaves = 65536;

  // --- Dynamic graph and standing queries (docs/DYNAMIC.md).

  /// Dirty-pair budget of incremental CandidateSpace maintenance: a batch
  /// whose flood+recheck work exceeds
  /// max(min_dirty_pairs, dirty_fraction * total candidates) falls back to
  /// a full from-scratch rebuild of that subscription's candidates.
  double dyn_rebuild_dirty_fraction = 0.5;
  uint64_t dyn_rebuild_min_dirty_pairs = 1024;
  /// Bound of each subscription's pending DeltaBatch queue; overflowing it
  /// drops the backlog and leaves a single resync marker (see
  /// DeltaBatch::resync).
  size_t subscription_queue_batches = 64;

  // --- Durable state (docs/PERSISTENCE.md).

  /// Durable store backing this service (null = memory-only). When the
  /// store recovered prior state, the constructor's `data` argument is
  /// ignored in favor of the recovered graph; a fresh store is seeded with
  /// `data` as the version-0 snapshot (if that seed write fails the
  /// service degrades to memory-only with a warning on stderr). Once
  /// attached, every committed batch is WAL-appended before it is applied,
  /// and after a publish the WAL is rolled into a fresh snapshot whenever
  /// the store's CheckpointDue() holds (the tail a restart would replay
  /// has reached max(64 KiB, a quarter of the snapshot)).
  std::shared_ptr<persist::DurableStore> data_store = nullptr;
};

/// A transport-agnostic concurrent subgraph-match service: owns one shared
/// data graph (a versioned DeltaGraph — see ApplyUpdates), a bounded
/// multi-priority admission queue, and a worker pool in which every running
/// job executes against a pooled warmed MatchContext (zero steady-state
/// allocations per query once warm).
///
///   daf::service::MatchService service(std::move(data), {.num_workers = 8});
///   daf::service::QueryJob job;
///   job.query = my_query;
///   job.priority = daf::service::Priority::kInteractive;
///   job.deadline_ms = 100;
///   auto handle = service.Submit(std::move(job));
///   ... handle.Status() / handle.Cancel() / handle.NextBatch() ...
///   const daf::MatchResult& r = handle.Result();
///
/// Scheduling: strict priority with FIFO lanes (see AdmissionQueue); a
/// job's deadline covers queue wait plus run, so stragglers stuck behind a
/// burst time out instead of running pointlessly. Cancellation is
/// cooperative through the CancelToken threaded into the DAF core: a
/// running hard query stops within a few thousand search-node expansions.
///
/// The destructor shuts down: admission closes, queued jobs resolve as
/// cancelled, running jobs are cancel-requested and joined. Every admitted
/// job reaches a terminal state before the service is gone, so JobHandles
/// may outlive it.
class MatchService {
 public:
  explicit MatchService(Graph data, ServiceOptions options = {});
  ~MatchService();

  MatchService(const MatchService&) = delete;
  MatchService& operator=(const MatchService&) = delete;

  /// Admits a job (non-blocking). The returned handle is always valid; on
  /// queue overflow or after Shutdown it is already terminal with status
  /// kRejected.
  JobHandle Submit(QueryJob job);

  /// Blocks until every admitted job has reached a terminal state (the
  /// queue is empty and all workers are idle). New submissions during a
  /// Drain extend it.
  void Drain();

  /// Stops admission, resolves queued jobs as cancelled, cancel-requests
  /// running jobs, and joins the workers. Idempotent.
  void Shutdown();

  /// Graceful shutdown for servers (SIGTERM/SIGINT): stops admission,
  /// waits up to `grace_ms` for admitted jobs to drain (stragglers still
  /// running at the deadline are cancelled by the Shutdown that follows),
  /// pushes a final resync marker to every active subscription so
  /// consumers know delivery ends at this version, fsyncs the WAL, then
  /// shuts down. Safe to call more than once.
  void GracefulShutdown(uint64_t grace_ms);

  // --- Dynamic graph and standing queries (docs/DYNAMIC.md).

  /// Applies one update batch atomically: the graph version advances, every
  /// standing query's candidates are maintained (incrementally when the
  /// dirty region is small, by rebuild otherwise), and each subscription's
  /// queue receives the exact embeddings the batch destroyed and created.
  /// Synchronous — when it returns, the deltas are pollable. Update batches
  /// are serialized against each other and against Subscribe, but never
  /// against jobs: the batch ends by materializing the new version and
  /// publishing {snapshot, version} in one atomic store, after every
  /// subscription's queue holds its deltas. Jobs dispatched before the
  /// publish match the previous version; a rejected batch publishes
  /// nothing.
  UpdateOutcome ApplyUpdates(const dyn::UpdateBatch& batch);

  /// Registers a standing query. The job's query graph and the CS-shaping
  /// options (injective, NLF/refinement) are honored; scheduling fields
  /// (priority, deadline, limits, streaming) are ignored — deltas are
  /// exact, not truncated. The query must be connected and non-empty, and
  /// the engine side channels must be unset, else the returned handle has
  /// ok() == false. For the initial result set, run the same query as an
  /// ordinary job right after subscribing: versions make the handoff exact
  /// (the job sees the snapshot at subscribed_version or later, and every
  /// batch since is pollable).
  SubscriptionHandle Subscribe(QueryJob job);

  /// Forces a checkpoint of the current version to the durable store
  /// (snapshot + WAL rotation + retention). False with *error when
  /// persistence is not configured or the write failed. Ordinary operation
  /// does not need it — ApplyUpdates checkpoints when the WAL tail is due
  /// — but operators may want one before a planned restart.
  bool Checkpoint(std::string* error = nullptr);

  /// Immutable CSR snapshot of the published graph version, read without
  /// waiting on an update batch. Repeated calls without an intervening
  /// update return the same instance.
  std::shared_ptr<const Graph> Snapshot() const;

  /// Version of the published snapshot: the number of update batches
  /// applied so far (the initial graph is v0). Never waits on a batch.
  uint64_t GraphVersion() const;

  /// Standing queries currently registered and not unsubscribed. Never
  /// waits on an update batch.
  size_t ActiveSubscriptions() const;

  /// A point-in-time copy of the service metrics.
  obs::ServiceMetricsSnapshot Metrics() const;

  const ServiceOptions& options() const { return options_; }

  /// Jobs admitted but not yet picked up by a worker.
  size_t QueueDepth() const { return queue_.depth(); }

 private:
  void WorkerLoop();
  /// Periodically scans running jobs for ones past deadline_ms +
  /// watchdog_grace_ms that haven't honored the stop poll; force-cancels
  /// them (once each) and bumps watchdog_fires.
  void WatchdogLoop();
  void ProcessJob(const internal::JobStatePtr& job);
  /// An immutable graph snapshot and the version it materializes; jobs
  /// read the pair as a unit.
  struct Published {
    std::shared_ptr<const Graph> graph;
    uint64_t version = 0;
  };
  /// Folds dgraph_'s overlay into its current version's snapshot and
  /// publishes that snapshot (writer side, under update_mutex_, or in the
  /// constructor).
  void Publish();
  /// Pushes one embedding into the job's stream buffer, blocking on
  /// backpressure; false when the consumer closed or the job was cancelled.
  bool DeliverEmbedding(const internal::JobStatePtr& job,
                        std::vector<VertexId> embedding);
  /// Publishes the terminal state and records the job's metrics.
  void FinishJob(const internal::JobStatePtr& job, JobStatus status,
                 bool ran);
  /// Resolves the initial graph: the store's recovered state when it has
  /// one, else `data` (seeding a fresh store with it as version 0). May
  /// reset store_ (degrade to memory-only) when the seed write fails.
  dyn::DeltaGraph InitGraph(Graph data);

  const ServiceOptions options_;
  /// Durable store (null = memory-only); shared with options_.data_store.
  /// Declared before dgraph_: InitGraph consults it. Writer calls are
  /// serialized by update_mutex_; Stats() may race them.
  std::shared_ptr<persist::DurableStore> store_;
  /// The data graph: writer-only state, read and mutated only under
  /// update_mutex_ (ApplyUpdates, Subscribe, Checkpoint, GracefulShutdown)
  /// or in the constructor. Jobs never touch it; they read published_.
  dyn::DeltaGraph dgraph_;
  /// What jobs match against: replaced (never mutated) by Publish at the
  /// end of every applied batch, so a job holding an older pair keeps its
  /// snapshot alive.
  PublishCell<Published> published_;
  /// Serializes update batches and subscription registration end to end.
  std::mutex update_mutex_;
  /// Standing queries; swept of unsubscribed entries on each update.
  /// Guarded by update_mutex_.
  std::vector<internal::SubscriptionStatePtr> subscriptions_;
  /// Subscribed minus unsubscribed, shared with every subscription so an
  /// Unsubscribe after the service is gone stays safe.
  std::shared_ptr<std::atomic<size_t>> active_subscriptions_ =
      std::make_shared<std::atomic<size_t>>(0);
  std::atomic<uint64_t> next_subscription_id_{1};
  AdmissionQueue queue_;
  ContextPool contexts_;
  /// Service-global memory ledger; every job's per-job budget charges
  /// through it as its parent.
  MemoryBudget global_budget_;
  /// Cross-query plan/CS cache (null when disabled); resident bytes charge
  /// the global ledger through a child budget.
  std::unique_ptr<QueryCache> cache_;
  std::vector<std::thread> workers_;
  std::thread watchdog_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> next_start_seq_{1};
  std::atomic<bool> shutdown_{false};
  /// Set by GracefulShutdown before the drain wait: Submit and
  /// ApplyUpdates reject, so inflight_ can only fall.
  std::atomic<bool> draining_{false};
  std::once_flag shutdown_once_;

  // Metrics and drain bookkeeping (one lock; all updates are O(1)).
  mutable std::mutex metrics_mutex_;
  std::condition_variable idle_cv_;
  obs::ServiceCounters counters_;
  obs::LatencyHistogram wait_hist_;
  obs::LatencyHistogram run_hist_;
  obs::LatencyHistogram total_hist_;
  uint64_t embeddings_streamed_ = 0;
  uint64_t inflight_ = 0;  // admitted, not yet terminal
  uint32_t running_ = 0;   // currently on a worker
  // Jobs currently on a worker, so Shutdown (and the watchdog) can
  // cancel-request them.
  std::vector<internal::JobStatePtr> running_jobs_;
  // Resource-governance accounting (guarded by metrics_mutex_).
  uint64_t watchdog_fires_ = 0;
  uint64_t budget_rejections_ = 0;
  uint64_t peak_job_bytes_ = 0;
  // Dynamic-graph accounting (guarded by metrics_mutex_).
  uint64_t dyn_batches_applied_ = 0;
  uint64_t dyn_batches_rejected_ = 0;
  uint64_t dyn_cs_incremental_ = 0;
  uint64_t dyn_cs_rebuilds_ = 0;
  uint64_t dyn_dirty_pairs_ = 0;
  uint64_t dyn_peak_dirty_pairs_ = 0;
  uint64_t dyn_embeddings_created_ = 0;
  uint64_t dyn_embeddings_destroyed_ = 0;
  uint64_t dyn_resyncs_ = 0;
  obs::LatencyHistogram notify_hist_;  // per-subscription notify latency
  obs::LatencyHistogram publish_hist_;  // per-batch materialize + publish
  // Wakes the watchdog early on shutdown (waits on metrics_mutex_).
  std::condition_variable watchdog_cv_;
};

}  // namespace daf::service

#endif  // DAF_SERVICE_MATCH_SERVICE_H_
