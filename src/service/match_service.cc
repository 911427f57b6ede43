#include "service/match_service.h"

#include <algorithm>
#include <cstdio>
#include <span>
#include <utility>

#include <chrono>

#include "daf/parallel.h"
#include "daf/prepared.h"
#include "graph/properties.h"
#include "util/fault_inject.h"
#include "util/timer.h"

namespace daf::service {

namespace {

ServiceOptions Normalize(ServiceOptions options) {
  options.num_workers = std::max(options.num_workers, 1u);
  options.queue_capacity = std::max<size_t>(options.queue_capacity, 1);
  options.subscription_queue_batches =
      std::max<size_t>(options.subscription_queue_batches, 1);
  return options;
}

}  // namespace

MatchService::MatchService(Graph data, ServiceOptions options)
    : options_(Normalize(options)),
      store_(options_.data_store),
      dgraph_(InitGraph(std::move(data))),
      queue_(options_.queue_capacity),
      contexts_(options_.num_workers, options_.context_retained_bytes),
      global_budget_(options_.service_memory_limit_bytes) {
  // O(1) on both paths: a fresh DeltaGraph caches its base as the v0
  // snapshot, and a recovered one the snapshot recovery built; either way
  // the overlay is empty, so the fold in Publish is a cache hit.
  Publish();
  if (options_.enable_query_cache) {
    QueryCacheOptions cache_options;
    cache_options.shards = options_.cache_shards;
    cache_options.max_resident_bytes = options_.cache_max_resident_bytes;
    cache_options.budget =
        options_.service_memory_limit_bytes != 0 ? &global_budget_ : nullptr;
    cache_ = std::make_unique<QueryCache>(cache_options);
  }
  workers_.reserve(options_.num_workers);
  for (uint32_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (options_.watchdog_interval_ms > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

MatchService::~MatchService() { Shutdown(); }

dyn::DeltaGraph MatchService::InitGraph(Graph data) {
  if (store_ != nullptr && store_->has_state()) {
    // Recovery already replayed the WAL onto the newest valid snapshot;
    // the constructor's seed graph is superseded by the durable truth.
    return store_->TakeRecoveredGraph();
  }
  if (store_ != nullptr) {
    std::string error;
    if (!store_->InitializeFresh(data, /*version=*/0, &error)) {
      // A service that cannot write its seed snapshot would reject every
      // update (append-before-apply); degrade to memory-only instead and
      // say so — the operator chose durability and is not getting it.
      std::fprintf(stderr, "daf: persistence disabled: %s\n", error.c_str());
      store_.reset();
    }
  }
  return dyn::DeltaGraph(std::move(data));
}

JobHandle MatchService::Submit(QueryJob job) {
  auto state = std::make_shared<internal::JobState>();
  state->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  state->priority = job.priority;
  state->query = std::move(job.query);
  state->options = std::move(job.options);
  state->deadline_ms = job.deadline_ms;
  state->stream = job.stream_embeddings;
  state->memory_limit = job.max_memory_bytes != 0
                            ? job.max_memory_bytes
                            : options_.job_memory_limit_bytes;
  state->bypass_cache = job.bypass_cache;
  if (job.limit != 0) state->options.limit = job.limit;

  // The service owns the engine's side channels (results stream through
  // the handle, the profile is per job, cancellation goes through it too).
  const bool reserved_channel_set = static_cast<bool>(state->options.callback) ||
                                    static_cast<bool>(state->options.progress) ||
                                    state->options.profile != nullptr ||
                                    state->options.cancel != nullptr;
  state->options.callback = {};
  state->options.progress = {};
  state->options.profile = nullptr;
  state->options.cancel = nullptr;

  // Resolves a job at submission time (never admitted: no inflight /
  // latency accounting, just the outcome counter).
  auto resolve_now = [&](JobStatus status, uint64_t* counter) {
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      state->finished = true;
      state->status.store(status, std::memory_order_release);
    }
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    ++counters_.submitted;
    ++*counter;
    return JobHandle(state);
  };

  if (reserved_channel_set) {
    state->result.ok = false;
    state->result.error =
        "QueryJob::options must leave callback/progress/profile/cancel "
        "unset; those channels belong to the service";
    return resolve_now(JobStatus::kFailed, &counters_.failed);
  }
  if (shutdown_.load(std::memory_order_acquire)) {
    state->result.ok = false;
    state->result.error = "service is shut down";
    return resolve_now(JobStatus::kRejected, &counters_.rejected);
  }
  if (draining_.load(std::memory_order_acquire)) {
    state->result.ok = false;
    state->result.error = "service is draining";
    return resolve_now(JobStatus::kRejected, &counters_.rejected);
  }

  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    ++counters_.submitted;
    ++inflight_;
  }
  if (FAULT_POINT(admission_push) || !queue_.TryPush(state)) {
    // Overflow, a racing shutdown, or an injected admission fault: shed the
    // load. The fault check runs first so a fired fault never half-admits.
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      state->result.ok = false;
      state->result.error = "admission queue full";
      state->finished = true;
      state->status.store(JobStatus::kRejected, std::memory_order_release);
    }
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    ++counters_.rejected;
    --inflight_;
    idle_cv_.notify_all();
  }
  return JobHandle(state);
}

void MatchService::WorkerLoop() {
  while (internal::JobStatePtr job = queue_.Pop()) {
    {
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      ++running_;
      running_jobs_.push_back(job);
      // A shutdown that raced our pop misses this job in its cancel sweep;
      // checking the flag under the same lock closes the window.
      if (shutdown_.load(std::memory_order_acquire)) job->cancel.Cancel();
    }
    ProcessJob(job);
    {
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      --running_;
      auto it = std::find(running_jobs_.begin(), running_jobs_.end(), job);
      if (it != running_jobs_.end()) running_jobs_.erase(it);
      // Drain waits for running_ too, so a post-Drain Metrics() snapshot
      // never sees a worker still in its per-job bookkeeping.
      idle_cv_.notify_all();
    }
  }
}

void MatchService::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(metrics_mutex_);
  while (!shutdown_.load(std::memory_order_acquire)) {
    watchdog_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.watchdog_interval_ms));
    if (shutdown_.load(std::memory_order_acquire)) break;
    for (const internal::JobStatePtr& job : running_jobs_) {
      if (job->deadline_ms == 0) continue;
      const double over =
          job->since_submit.ElapsedMs() -
          static_cast<double>(job->deadline_ms + options_.watchdog_grace_ms);
      if (over <= 0) continue;
      // The job blew past deadline + grace without honoring its stop poll
      // (a stuck engine stage, a producer wedged on backpressure, ...).
      // Force-cancel it; the exchange claims the single fire per job.
      if (job->watchdog_fired.exchange(true)) continue;
      job->cancel.Cancel();
      {
        // metrics_mutex_ -> job->mutex is the established lock order
        // (Shutdown's cancel sweep does the same).
        std::lock_guard<std::mutex> job_lock(job->mutex);
        job->producer_cv.notify_all();
        job->consumer_cv.notify_all();
      }
      ++watchdog_fires_;
    }
  }
}

void MatchService::ProcessJob(const internal::JobStatePtr& job) {
  job->wait_ms = job->since_submit.ElapsedMs();
  job->start_seq = next_start_seq_.fetch_add(1, std::memory_order_relaxed);

  if (job->cancel.cancelled()) {
    job->result.cancelled = true;
    FinishJob(job, JobStatus::kCancelled, /*ran=*/false);
    return;
  }

  if (FAULT_POINT(worker_dispatch)) {
    // Simulated dispatch failure (a worker that could not set up the run).
    job->result.ok = false;
    job->result.error = "injected worker dispatch fault";
    FinishJob(job, JobStatus::kFailed, /*ran=*/false);
    return;
  }

  MatchOptions opts = job->options;
  opts.cancel = &job->cancel;
  if (options_.collect_profiles) opts.profile = &job->profile;
  if (job->deadline_ms > 0) {
    // The end-to-end deadline already paid the queue wait; hand the engine
    // only what is left (the tighter of it and any explicit search budget).
    const double remaining =
        static_cast<double>(job->deadline_ms) - job->wait_ms;
    if (remaining < 1) {
      job->result.timed_out = true;
      FinishJob(job, JobStatus::kTimedOut, /*ran=*/false);
      return;
    }
    const uint64_t remaining_ms = static_cast<uint64_t>(remaining);
    opts.time_limit_ms = opts.time_limit_ms == 0
                             ? remaining_ms
                             : std::min(opts.time_limit_ms, remaining_ms);
  }

  job->status.store(JobStatus::kRunning, std::memory_order_release);

  // Per-job ledger under the service-global one. Stack-local is safe: the
  // engine detaches the arena before returning.
  MemoryBudget budget(job->memory_limit, &global_budget_);
  opts.memory_budget = &budget;

  // The job runs against the pair published at dispatch, read without
  // waiting on an update batch. Updates applied mid-run do not tear the
  // search (the CSR is immutable and the pair keeps it alive), and the
  // version keys the cache lookup so a blob built for an older graph can
  // never serve this job.
  const std::shared_ptr<const Published> published = published_.Load();
  const Graph& data = *published->graph;
  job->graph_version = published->version;

  Stopwatch run_timer;
  uint64_t streamed = 0;
  // Latency-critical jobs spend intra-query threads; limits, deadline and
  // cancellation keep exact single-thread semantics through the shared
  // counter and the StopCondition each worker polls.
  const bool parallel = !job->stream && options_.intra_query_threads > 1 &&
                        job->priority == Priority::kInteractive;
  MatchResult result;
  {
    ContextPool::Lease lease = contexts_.Acquire();

    // Cross-query cache: resolve the canonical pattern first. A hit (or a
    // miss, which built and published the blob) runs the prepared engine
    // against the canonical query; a null lease (bypass, uncacheable query,
    // interrupted or coalesced-failed build) falls through to the cold
    // engine, whose own StopCondition re-reports any cancel/deadline/budget
    // that interrupted the build.
    QueryCache::Lease cached;
    if (cache_ != nullptr && !job->bypass_cache) {
      cached = cache_->Acquire(job->query, data, opts, published->version);
      job->cache_outcome = cached.outcome;
    }

    if (job->stream) {
      // The search runs on this worker and hands each embedding to the
      // handle's buffer, blocking on backpressure. A prepared run
      // enumerates the *canonical* query, so its embeddings are remapped
      // through the stored permutation to the submitted vertex numbering.
      const std::vector<VertexId>* to_canonical =
          cached.prepared != nullptr ? &cached.form.to_canonical : nullptr;
      opts.callback = [&, to_canonical](std::span<const VertexId> embedding) {
        std::vector<VertexId> out(embedding.size());
        for (size_t u = 0; u < out.size(); ++u) {
          out[u] = embedding[to_canonical != nullptr ? (*to_canonical)[u] : u];
        }
        if (!DeliverEmbedding(job, std::move(out))) return false;
        ++streamed;
        return true;
      };
    }
    const uint32_t threads = parallel ? options_.intra_query_threads : 1;
    if (cached.prepared != nullptr) {
      result = DafMatchPrepared(*cached.prepared, data, opts, threads,
                                lease.get());
    } else {
      result = ParallelDafMatch(job->query, data, opts, threads, lease.get());
    }
  }
  job->run_ms = run_timer.ElapsedMs();
  job->result = std::move(result);
  job->peak_bytes = budget.peak_bytes();
  job->budget_rejections = budget.rejections();

  const MatchResult& r = job->result;
  JobStatus status;
  if (!r.ok) {
    status = JobStatus::kFailed;
  } else if (r.cancelled ||
             (job->cancel.cancelled() && !r.Complete())) {
    // The second clause catches a cancel that stopped the run through the
    // streaming channel before the search loop polled the token.
    status = JobStatus::kCancelled;
  } else if (r.resource_exhausted) {
    status = JobStatus::kResourceExhausted;
  } else if (r.timed_out) {
    status = JobStatus::kTimedOut;
  } else {
    status = JobStatus::kDone;
  }
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    embeddings_streamed_ += streamed;
    if (parallel) ++counters_.parallel_jobs;
    budget_rejections_ += budget.rejections();
    peak_job_bytes_ = std::max(peak_job_bytes_, budget.peak_bytes());
  }
  FinishJob(job, status, /*ran=*/true);
}

bool MatchService::DeliverEmbedding(const internal::JobStatePtr& job,
                                    std::vector<VertexId> embedding) {
  std::unique_lock<std::mutex> lock(job->mutex);
  job->producer_cv.wait(lock, [&] {
    return job->consumer_closed || job->cancel.cancelled() ||
           job->buffer.size() < internal::JobState::kBufferCapacity;
  });
  if (job->consumer_closed || job->cancel.cancelled()) return false;
  job->buffer.push_back(std::move(embedding));
  job->consumer_cv.notify_one();
  return true;
}

void MatchService::FinishJob(const internal::JobStatePtr& job,
                             JobStatus status, bool ran) {
  {
    std::lock_guard<std::mutex> lock(job->mutex);
    job->finished = true;
    job->status.store(status, std::memory_order_release);
    job->consumer_cv.notify_all();
    job->producer_cv.notify_all();
  }
  const double total_ms = job->since_submit.ElapsedMs();
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  switch (status) {
    case JobStatus::kDone:
      ++counters_.completed;
      break;
    case JobStatus::kCancelled:
      ++counters_.cancelled;
      break;
    case JobStatus::kTimedOut:
      ++counters_.timed_out;
      break;
    case JobStatus::kFailed:
      ++counters_.failed;
      break;
    case JobStatus::kResourceExhausted:
      ++counters_.resource_exhausted;
      break;
    default:
      break;  // kQueued/kRunning/kRejected never reach FinishJob
  }
  wait_hist_.Record(job->wait_ms);
  if (ran) run_hist_.Record(job->run_ms);
  total_hist_.Record(total_ms);
  --inflight_;
  idle_cv_.notify_all();
}

void MatchService::Drain() {
  std::unique_lock<std::mutex> lock(metrics_mutex_);
  idle_cv_.wait(lock, [&] { return inflight_ == 0 && running_ == 0; });
}

void MatchService::Shutdown() {
  std::call_once(shutdown_once_, [&] {
    shutdown_.store(true, std::memory_order_release);
    queue_.Close();
    // Jobs still queued never run; resolve them as cancelled.
    for (internal::JobStatePtr& job : queue_.Flush()) {
      job->cancel.Cancel();
      job->result.cancelled = true;
      FinishJob(job, JobStatus::kCancelled, /*ran=*/false);
    }
    // Cancel-request everything currently on a worker, waking producers
    // blocked on stream backpressure.
    {
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      for (const internal::JobStatePtr& job : running_jobs_) {
        job->cancel.Cancel();
        std::lock_guard<std::mutex> job_lock(job->mutex);
        job->producer_cv.notify_all();
        job->consumer_cv.notify_all();
      }
    }
    for (std::thread& worker : workers_) worker.join();
    if (watchdog_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        watchdog_cv_.notify_all();
      }
      watchdog_.join();
    }
  });
}

void MatchService::GracefulShutdown(uint64_t grace_ms) {
  draining_.store(true, std::memory_order_release);
  {
    // Admission is closed, so inflight_ can only fall; wait for the
    // admitted jobs to finish, bounded by the grace deadline.
    std::unique_lock<std::mutex> lock(metrics_mutex_);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(grace_ms);
    idle_cv_.wait_until(lock, deadline,
                        [&] { return inflight_ == 0 && running_ == 0; });
  }
  {
    // Final resync marker: delivery stops at this version, and a consumer
    // reconnecting after the restart must re-run its standing query (its
    // subscription object does not survive the process).
    std::lock_guard<std::mutex> ulock(update_mutex_);
    for (const internal::SubscriptionStatePtr& sub : subscriptions_) {
      if (sub->cancelled.load(std::memory_order_acquire)) continue;
      DeltaBatch marker;
      marker.version = dgraph_.version();
      marker.resync = true;
      internal::PushDeltaBatch(*sub, std::move(marker));
    }
  }
  if (store_ != nullptr) {
    // Whatever the fsync policy deferred is made durable now: a graceful
    // exit must never lose batches the service reported committed.
    std::string sync_error;
    if (!store_->Sync(&sync_error)) {
      std::fprintf(stderr, "daf: wal sync on shutdown failed: %s\n",
                   sync_error.c_str());
    }
  }
  Shutdown();
}

void MatchService::Publish() {
  // The fold makes the published snapshot the base, so the overlay only
  // ever holds the batch in progress.
  dgraph_.Compact();
  published_.Store(std::make_shared<const Published>(
      Published{dgraph_.Materialize(), dgraph_.version()}));
  // The version is part of every cache key, so no entry of the replaced
  // version can be hit again; drop them instead of waiting for LRU.
  if (cache_ != nullptr) cache_->Clear();
}

std::shared_ptr<const Graph> MatchService::Snapshot() const {
  return published_.Load()->graph;
}

uint64_t MatchService::GraphVersion() const {
  return published_.Load()->version;
}

size_t MatchService::ActiveSubscriptions() const {
  return active_subscriptions_->load(std::memory_order_acquire);
}

SubscriptionHandle MatchService::Subscribe(QueryJob job) {
  auto state = std::make_shared<internal::SubscriptionState>();
  state->id = next_subscription_id_.fetch_add(1, std::memory_order_relaxed);
  state->query = std::move(job.query);
  state->options = std::move(job.options);
  state->max_pending = options_.subscription_queue_batches;

  auto reject = [&](std::string why) {
    state->ok = false;
    state->error = std::move(why);
    return SubscriptionHandle(state);
  };
  if (static_cast<bool>(state->options.callback) ||
      static_cast<bool>(state->options.progress) ||
      state->options.profile != nullptr || state->options.cancel != nullptr) {
    return reject(
        "QueryJob::options must leave callback/progress/profile/cancel "
        "unset; deltas are delivered through the SubscriptionHandle");
  }
  if (state->query.NumVertices() == 0) {
    return reject("standing query must be non-empty");
  }
  if (!IsConnected(state->query)) {
    // Delta enumeration grows outward from one pinned edge; a disconnected
    // pattern would never be covered by one seed.
    return reject("standing query must be connected");
  }
  if (shutdown_.load(std::memory_order_acquire)) {
    return reject("service is shut down");
  }

  dyn::DynamicCandidateSpace::Options cs_options;
  cs_options.refinement_steps = state->options.refinement_steps;
  cs_options.use_nlf_filter = state->options.use_nlf_filter;
  cs_options.use_mnd_filter = state->options.use_mnd_filter;
  cs_options.injective = state->options.injective;
  cs_options.rebuild_dirty_fraction = options_.dyn_rebuild_dirty_fraction;
  cs_options.rebuild_min_dirty_pairs = options_.dyn_rebuild_min_dirty_pairs;

  std::lock_guard<std::mutex> ulock(update_mutex_);
  // Under update_mutex_ the published pair is the writer's current version
  // (batches publish before releasing it), so a job submitted after this
  // returns runs at subscribed_version or later.
  const std::shared_ptr<const Published> published = published_.Load();
  state->subscribed_version = published->version;
  state->cs = std::make_unique<dyn::DynamicCandidateSpace>(
      state->query, *published->graph, cs_options);
  state->enumerator =
      std::make_unique<dyn::DeltaEnumerator>(state->query, *state->cs);
  state->active_count = active_subscriptions_;
  active_subscriptions_->fetch_add(1, std::memory_order_acq_rel);
  subscriptions_.push_back(state);
  return SubscriptionHandle(state);
}

UpdateOutcome MatchService::ApplyUpdates(const dyn::UpdateBatch& batch) {
  UpdateOutcome out;
  std::lock_guard<std::mutex> ulock(update_mutex_);
  if (shutdown_.load(std::memory_order_acquire)) {
    out.ok = false;
    out.error = "service is shut down";
    return out;
  }
  if (draining_.load(std::memory_order_acquire)) {
    // GracefulShutdown has synced (or is about to sync) the WAL; a batch
    // admitted now could commit in memory and miss durability.
    out.ok = false;
    out.error = "service is draining";
    return out;
  }

  // Sweep subscriptions dropped since the last update.
  subscriptions_.erase(
      std::remove_if(subscriptions_.begin(), subscriptions_.end(),
                     [](const internal::SubscriptionStatePtr& s) {
                       return s->cancelled.load(std::memory_order_acquire);
                     }),
      subscriptions_.end());

  // Pure pre-pass: the net change set, and per subscription the embeddings
  // it destroys — both read the pre-batch graph (the published snapshot,
  // for Destroyed). Nothing is delivered yet: if the apply itself fails (an
  // injected delta_apply fault), the negatives are simply dropped and no
  // subscriber observes a version that never existed.
  dyn::NormalizedBatch net;
  std::string error;
  if (!dgraph_.Normalize(batch, &net, &error)) {
    out.ok = false;
    out.error = std::move(error);
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    ++dyn_batches_rejected_;
    return out;
  }
  std::vector<dyn::DeltaEnumResult> destroyed(subscriptions_.size());
  {  // Scoped so that the publish below can free version v.
    const std::shared_ptr<const Graph> before = published_.Load()->graph;
    for (size_t i = 0; i < subscriptions_.size(); ++i) {
      destroyed[i] = subscriptions_[i]->enumerator->Destroyed(*before, net, {});
    }
  }

  // Append-before-apply (docs/PERSISTENCE.md): the normalized batch is
  // durable before any in-memory state changes. An append failure rejects
  // the batch — an unlogged batch must never be applied; the converse (an
  // apply failure after the append) rolls the log back below.
  const bool logged = store_ != nullptr;
  if (logged) {
    std::string persist_error;
    if (!store_->AppendBatch(net, batch.add_vertices, dgraph_.version() + 1,
                             &persist_error)) {
      out.ok = false;
      out.error = std::move(persist_error);
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      ++dyn_batches_rejected_;
      return out;
    }
  }

  // Install the net change computed above (ApplyBatch would normalize the
  // same batch a second time). The delta_apply fault stands in for a
  // failed install: polled once per batch, after the append. Jobs keep
  // matching the published pair throughout; nothing below blocks them.
  dyn::ApplyResult r;
  if (FAULT_POINT(delta_apply)) {
    r.ok = false;
    r.error = "injected fault: delta_apply";
  } else {
    r = dgraph_.ApplyNormalized(net, batch.add_vertices);
  }
  if (!r.ok) {
    if (logged) {
      // The WAL holds a batch the graph refused; truncate it back out.
      // If even that fails the store latches fail-stop and every later
      // append is refused (the log must stay a prefix of the truth).
      std::string rollback_error;
      store_->RollbackLastAppend(&rollback_error);
    }
    out.ok = false;
    out.error = std::move(r.error);
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    ++dyn_batches_rejected_;
    return out;
  }
  out.version = r.version;
  out.inserted_edges = r.inserted_edges;
  out.removed_edges = r.removed_edges;
  out.added_vertices = r.added_vertices;
  out.removed_vertices = r.removed_vertices;
  out.ignored_ops = r.ignored_ops;

  // The new version's snapshot, read by the post-pass; jobs see it only
  // once Publish below stores it.
  Stopwatch build_timer;
  const std::shared_ptr<const Graph> after = dgraph_.Materialize();
  out.publish_ms = build_timer.ElapsedMs();

  // Post-pass per subscription: maintain the candidates, enumerate the
  // created embeddings, deliver.
  uint64_t cs_incremental = 0, cs_rebuilds = 0;
  uint64_t dirty_pairs = 0, peak_dirty = 0;
  std::vector<double> notify_ms;
  notify_ms.reserve(subscriptions_.size());
  for (size_t i = 0; i < subscriptions_.size(); ++i) {
    internal::SubscriptionState& sub = *subscriptions_[i];
    Stopwatch notify_timer;
    const auto stats = sub.cs->Apply(*after, net);
    if (stats.rebuilt) {
      ++cs_rebuilds;
    } else {
      ++cs_incremental;
    }
    dirty_pairs += stats.dirty_pairs;
    peak_dirty = std::max(peak_dirty, stats.dirty_pairs);

    dyn::DeltaEnumResult created = sub.enumerator->Created(*after, net, {});

    DeltaBatch delta;
    delta.version = r.version;
    if (FAULT_POINT(subscriber_notify)) {
      // Injected delivery failure: the deltas are lost, not half-sent.
      // Degrade honestly to a resync marker so the consumer knows its
      // fold diverged at this version.
      delta.resync = true;
    } else {
      delta.deltas.reserve(destroyed[i].embeddings.size() +
                           created.embeddings.size());
      for (auto& m : destroyed[i].embeddings) {
        delta.deltas.push_back({/*created=*/false, std::move(m)});
      }
      for (auto& m : created.embeddings) {
        delta.deltas.push_back({/*created=*/true, std::move(m)});
      }
      out.embeddings_created += created.embeddings.size();
      out.embeddings_destroyed += destroyed[i].embeddings.size();
    }
    // PushDeltaBatch reports false both for a delivery degraded to a
    // resync marker here and for a queue overflow that dropped backlog.
    if (!internal::PushDeltaBatch(sub, std::move(delta))) ++out.resyncs;
    ++out.subscriptions_notified;
    notify_ms.push_back(notify_timer.ElapsedMs());
  }

  // Every queue holds this version's deltas, so the version may become
  // visible (the fold is a cache hit); publish_ms is the build plus this.
  Stopwatch publish_timer;
  Publish();
  out.publish_ms += publish_timer.ElapsedMs();

  if (logged && store_->CheckpointDue()) {
    // The tail a restart would replay outgrew its share of the snapshot.
    // Still under update_mutex_ (checkpoints serialize with appends); jobs
    // proceed during the write. Failure is non-fatal: the WAL still holds
    // everything since the last good snapshot, and the store counted it.
    std::string checkpoint_error;
    store_->Checkpoint(*published_.Load()->graph, r.version,
                       &checkpoint_error);
  }

  std::lock_guard<std::mutex> lock(metrics_mutex_);
  ++dyn_batches_applied_;
  dyn_cs_incremental_ += cs_incremental;
  dyn_cs_rebuilds_ += cs_rebuilds;
  dyn_dirty_pairs_ += dirty_pairs;
  dyn_peak_dirty_pairs_ = std::max(dyn_peak_dirty_pairs_, peak_dirty);
  dyn_embeddings_created_ += out.embeddings_created;
  dyn_embeddings_destroyed_ += out.embeddings_destroyed;
  dyn_resyncs_ += out.resyncs;
  for (double ms : notify_ms) notify_hist_.Record(ms);
  publish_hist_.Record(out.publish_ms);
  return out;
}

bool MatchService::Checkpoint(std::string* error) {
  if (store_ == nullptr) {
    if (error != nullptr) *error = "persistence not configured";
    return false;
  }
  // Under update_mutex_ the published pair is dgraph_'s current version.
  std::lock_guard<std::mutex> ulock(update_mutex_);
  const std::shared_ptr<const Published> published = published_.Load();
  return store_->Checkpoint(*published->graph, published->version, error);
}

obs::ServiceMetricsSnapshot MatchService::Metrics() const {
  obs::ServiceMetricsSnapshot m;
  // Never takes update_mutex_, so a scrape does not wait out a batch (the
  // store's internal mutex is a leaf — Stats never blocks a writer for
  // long).
  m.dyn_active_subscriptions = ActiveSubscriptions();
  m.graph_version = GraphVersion();
  if (store_ != nullptr) {
    const persist::PersistStats ps = store_->Stats();
    m.persist_enabled = true;
    m.persist_wal_bytes = ps.wal_bytes;
    m.persist_wal_appended_batches = ps.wal_appended_batches;
    m.persist_wal_fsyncs = ps.wal_fsyncs;
    m.persist_snapshots_written = ps.snapshots_written;
    m.persist_errors = ps.persist_errors;
    m.persist_failed = ps.failed;
    m.persist_last_snapshot_ms = ps.last_snapshot_ms;
    m.persist_recovered = ps.recovery.recovered;
    m.persist_recovery_snapshot_version = ps.recovery.snapshot_version;
    m.persist_recovery_wal_replayed = ps.recovery.wal_records_replayed;
    m.persist_recovery_wal_truncated_bytes = ps.recovery.wal_truncated_bytes;
    m.persist_recovery_ms = ps.recovery.recovery_ms;
    m.persist_recovery_load_ms = ps.recovery.load_ms;
    m.persist_recovery_replay_ms = ps.recovery.replay_ms;
    m.persist_recovery_build_ms = ps.recovery.build_ms;
  }
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  m.dyn_batches_applied = dyn_batches_applied_;
  m.dyn_batches_rejected = dyn_batches_rejected_;
  m.dyn_cs_incremental = dyn_cs_incremental_;
  m.dyn_cs_rebuilds = dyn_cs_rebuilds_;
  m.dyn_dirty_pairs = dyn_dirty_pairs_;
  m.dyn_peak_dirty_pairs = dyn_peak_dirty_pairs_;
  m.dyn_embeddings_created = dyn_embeddings_created_;
  m.dyn_embeddings_destroyed = dyn_embeddings_destroyed_;
  m.dyn_resyncs = dyn_resyncs_;
  m.notify = notify_hist_;
  m.publish = publish_hist_;
  m.counters = counters_;
  m.queue_depth = queue_.depth();
  m.running = running_;
  m.workers = static_cast<uint32_t>(workers_.size());
  m.embeddings_streamed = embeddings_streamed_;
  m.watchdog_fires = watchdog_fires_;
  m.budget_rejections = budget_rejections_;
  m.peak_job_bytes = peak_job_bytes_;
  m.global_memory_used = global_budget_.used();
  m.global_memory_limit = global_budget_.limit();
  m.pool_peak_in_use = contexts_.peak_in_use();
  m.pool_capacity = contexts_.capacity();
  m.wait = wait_hist_;
  m.run = run_hist_;
  m.total = total_hist_;
  if (cache_ != nullptr) {
    const QueryCacheStats cs = cache_->Stats();
    m.cache_enabled = true;
    m.cache_lookups = cs.lookups;
    m.cache_hits = cs.hits;
    m.cache_misses = cs.misses;
    m.cache_coalesced = cs.coalesced;
    m.cache_evictions = cs.evictions;
    m.cache_insert_failures = cs.insert_failures;
    m.cache_uncacheable = cs.uncacheable;
    m.cache_resident_bytes = cs.resident_bytes;
    m.cache_entries = cs.entries;
  }
  return m;
}

}  // namespace daf::service
