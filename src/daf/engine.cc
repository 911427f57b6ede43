#include "daf/engine.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "daf/candidate_space.h"
#include "daf/parallel.h"
#include "daf/prepared.h"
#include "daf/query_dag.h"
#include "daf/steal.h"
#include "daf/weights.h"
#include "util/timer.h"

namespace daf {

namespace {

// Copies the arena counters of `arena_context` (null when the run built
// nothing in a context arena, as prepared runs do) and the budget ledger
// (when one is attached) into the profile's memory section.
void FillMemoryProfile(obs::SearchProfile* profile,
                       const MatchContext* arena_context,
                       const MemoryBudget* budget) {
  if (profile == nullptr) return;
  if (arena_context != nullptr) {
    const ArenaStats& stats = arena_context->arena_stats();
    profile->memory.arena_bytes = stats.bytes_used;
    profile->memory.arena_peak_bytes = stats.peak_bytes;
    profile->memory.arena_blocks_acquired = stats.blocks_acquired;
    profile->memory.arena_capacity_bytes = stats.capacity_bytes;
  }
  if (budget != nullptr) {
    profile->memory.budget_limit_bytes = budget->limit();
    profile->memory.budget_used_bytes = budget->used();
    profile->memory.budget_peak_bytes = budget->peak_bytes();
    profile->memory.budget_rejections = budget->rejections();
    profile->memory.budget_exhausted = budget->exhausted();
  }
}

// Attaches the context arena to the run's budget for the scope of one match
// and detaches on every exit path — the budget usually lives on the
// caller's stack (ProcessJob, match_cli) and must not outlive-dangle inside
// a pooled context.
class ArenaBudgetScope {
 public:
  ArenaBudgetScope(MatchContext* context, MemoryBudget* budget)
      : context_(context), attached_(budget != nullptr) {
    if (attached_) context_->arena().SetBudget(budget);
  }
  ArenaBudgetScope(const ArenaBudgetScope&) = delete;
  ArenaBudgetScope& operator=(const ArenaBudgetScope&) = delete;
  ~ArenaBudgetScope() {
    if (attached_) context_->arena().SetBudget(nullptr);
  }

 private:
  MatchContext* context_;
  bool attached_;
};

void SetStopFlags(StopCause cause, MatchResult* result) {
  result->timed_out = cause == StopCause::kDeadline;
  result->cancelled = cause == StopCause::kCancel;
  result->resource_exhausted = cause == StopCause::kMemoryExhausted;
}

void AddStats(const BacktrackStats& stats, MatchResult* result) {
  result->embeddings += stats.embeddings;
  result->recursive_calls += stats.recursive_calls;
  result->limit_reached |= stats.limit_reached || stats.callback_stopped;
  result->timed_out |= stats.timed_out;
  result->cancelled |= stats.cancelled;
  result->resource_exhausted |= stats.resource_exhausted;
}

// The prefix of Algorithm 1: BuildDAG, BuildCS and the weight array, with
// the early-exit ladder run once — interrupted CS build, then the Appendix
// A.3 negativity certificate (skipped when the budget has latched: an
// exhausted run must never claim one), then a stop check so a budget spent
// during preprocessing is reported instead of entering a doomed search.
// The structures go into `context`'s arena, or, with a null context, into
// storage `out` owns (the cache's blobs, which outlive any context).
//
// Returns the stop cause that ended the prefix (kNone otherwise) and fills
// the CS counters, stop flags, certificate and preprocess_ms of `result`.
// The search may run only when it returns kNone without a certificate.
StopCause BuildPrefix(const Graph& query, const Graph& data,
                      const MatchOptions& options, const Deadline& deadline,
                      MatchContext* context, PreparedQuery* out,
                      MatchResult* result) {
  // An owned prefix is a cache build that many later searches share; each
  // of those is profiled on its own, so the build records nothing.
  obs::SearchProfile* profile = context != nullptr ? options.profile : nullptr;
  MemoryBudget* budget = options.memory_budget;
  const StopCondition stop(options.time_limit_ms > 0 ? &deadline : nullptr,
                           options.cancel, budget);
  Stopwatch preprocess_timer;
  Stopwatch stage_timer;
  // The DAG's root choice may build index buckets before the CS build
  // resets the profile; its share is added once that build is done.
  double dag_index_build_ms = 0;
  out->dag = QueryDag::Build(
      query, data, profile != nullptr ? &dag_index_build_ms : nullptr);
  if (profile != nullptr) {
    profile->dag_build_ms = stage_timer.ElapsedMs();
    stage_timer.Restart();
  }
  CandidateSpace::Options cs_options;
  cs_options.refinement_steps = options.refinement_steps;
  cs_options.use_nlf_filter = options.use_nlf_filter;
  cs_options.use_mnd_filter = options.use_mnd_filter;
  cs_options.injective = options.injective;
  cs_options.profile = profile != nullptr ? &profile->cs : nullptr;
  cs_options.stop = stop.armed() ? &stop : nullptr;
  cs_options.budget = budget;
  out->cs = context != nullptr
                ? CandidateSpace::Build(query, out->dag, data, cs_options,
                                        &context->arena(),
                                        &context->cs_scratch())
                : CandidateSpace::Build(query, out->dag, data, cs_options);
  if (profile != nullptr) {
    profile->cs_build_ms = stage_timer.ElapsedMs();
    profile->cs.index_build_ms += dag_index_build_ms;
  }
  result->cs_candidates = out->cs.TotalCandidates();
  result->cs_edges = out->cs.TotalEdges();

  // An interrupted build leaves empty placeholder sets, which are no
  // certificate.
  StopCause cause = out->cs.interrupt_cause();
  if (cause == StopCause::kNone &&
      (budget == nullptr || !budget->exhausted())) {
    for (uint32_t u = 0; u < query.NumVertices(); ++u) {
      if (out->cs.NumCandidates(u) == 0) {
        out->cs_certified_negative = true;
        break;
      }
    }
  }
  if (cause == StopCause::kNone && !out->cs_certified_negative) {
    cause = stop.Check();
    // A blob serves any matching order, so an owned prefix always carries
    // the weights.
    if (cause == StopCause::kNone &&
        (context == nullptr || options.order == MatchOrder::kPathSize)) {
      stage_timer.Restart();
      out->weights = WeightArray::Compute(
          out->dag, out->cs, context != nullptr ? &context->arena() : nullptr);
      if (profile != nullptr) profile->weights_ms = stage_timer.ElapsedMs();
    }
  }
  SetStopFlags(cause, result);
  result->cs_certified_negative = out->cs_certified_negative;
  result->preprocess_ms = preprocess_timer.ElapsedMs();
  return cause;
}

// The multi-threaded half of Search: the CS is shared read-only and the
// search tree is split over `threads` workers, each running `bt` with its
// own scratch from `context`.
void RunWorkers(const Graph& query, const QueryDag& dag,
                const CandidateSpace& cs, const WeightArray* weights,
                uint32_t data_num_vertices, const MatchOptions& options,
                BacktrackOptions bt, uint32_t threads, MatchContext* context,
                ParallelMatchResult* result) {
  std::atomic<uint64_t> shared_count{0};
  std::atomic<uint32_t> root_cursor{0};
  bt.shared_count = &shared_count;
  std::unique_ptr<StealScheduler> scheduler;
  if (options.parallel_strategy == ParallelStrategy::kWorkStealing) {
    scheduler =
        std::make_unique<StealScheduler>(threads, options.split_threshold);
    // The seed task (no prefix, no pinned range) makes whichever worker
    // grabs it first start a full search; everyone else feeds on donations.
    scheduler->Seed(SubtreeTask{});
    bt.scheduler = scheduler.get();
    bt.split_threshold = options.split_threshold;
  } else {
    bt.root_cursor = &root_cursor;
  }

  std::mutex callback_mutex;
  if (options.callback) {
    bt.callback = [&](std::span<const VertexId> embedding) {
      std::lock_guard<std::mutex> lock(callback_mutex);
      return options.callback(embedding);
    };
  }
  if (options.progress) {
    bt.progress = [&](const obs::ProgressSnapshot& snapshot) {
      std::lock_guard<std::mutex> lock(callback_mutex);
      options.progress(snapshot);
    };
  }

  // One profile per worker; merged below so parallel runs report both the
  // aggregate and the per-thread breakdown.
  obs::SearchProfile* profile = options.profile;
  std::vector<obs::BacktrackProfile> thread_profiles(
      profile != nullptr ? threads : 0);
  std::vector<BacktrackStats> stats(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  // Pre-create every worker's scratch: the vector must not reallocate
  // while workers hold references into it.
  context->EnsureThreads(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      Backtracker backtracker(query, dag, cs, weights, data_num_vertices,
                              &context->backtrack_scratch(t));
      BacktrackOptions worker_bt = bt;
      worker_bt.profile = profile != nullptr ? &thread_profiles[t] : nullptr;
      worker_bt.thread_id = t;
      stats[t] = scheduler != nullptr ? backtracker.RunWorker(worker_bt)
                                      : backtracker.Run(worker_bt);
    });
  }
  for (auto& w : workers) w.join();

  result->per_thread_calls.resize(threads);
  uint64_t max_calls = 0;
  for (uint32_t t = 0; t < threads; ++t) {
    AddStats(stats[t], result);
    result->per_thread_calls[t] = stats[t].recursive_calls;
    max_calls = std::max(max_calls, stats[t].recursive_calls);
  }
  if (result->recursive_calls > 0) {
    result->call_imbalance = static_cast<double>(max_calls) * threads /
                             static_cast<double>(result->recursive_calls);
  }
  std::vector<uint64_t> per_thread_steals(threads, 0);
  if (scheduler != nullptr) {
    for (uint32_t t = 0; t < threads; ++t) {
      const StealWorkerStats& ws = scheduler->worker_stats(t);
      result->tasks_executed += ws.tasks_executed;
      result->steals += ws.steals;
      result->donations += ws.donations;
      result->idle_ms += ws.idle_ms;
      per_thread_steals[t] = ws.steals;
    }
  }
  if (profile != nullptr) {
    profile->threads = threads;
    for (const obs::BacktrackProfile& tp : thread_profiles) {
      profile->backtrack.MergeFrom(tp);
    }
    profile->thread_profiles = std::move(thread_profiles);
    profile->parallel.tasks_executed = result->tasks_executed;
    profile->parallel.steals = result->steals;
    profile->parallel.donations = result->donations;
    profile->parallel.idle_ms = result->idle_ms;
    profile->parallel.call_imbalance = result->call_imbalance;
    profile->parallel.per_thread_calls = result->per_thread_calls;
    profile->parallel.per_thread_steals = std::move(per_thread_steals);
  }
}

// Algorithm 1 line 3 over a built prefix. One thread runs the Backtracker
// inline on the caller's thread; more threads go through RunWorkers.
void Search(const Graph& query, const QueryDag& dag, const CandidateSpace& cs,
            const WeightArray& weights, const Graph& data,
            const MatchOptions& options, const Deadline& deadline,
            uint32_t threads, MatchContext* context,
            ParallelMatchResult* result) {
  const WeightArray* order_weights =
      options.order == MatchOrder::kPathSize ? &weights : nullptr;
  obs::SearchProfile* profile = options.profile;
  BacktrackOptions bt;
  bt.order = options.order;
  bt.use_failing_sets = options.use_failing_sets;
  bt.leaf_decomposition = options.leaf_decomposition;
  bt.limit = options.limit;
  bt.injective = options.injective;
  bt.deadline = options.time_limit_ms > 0 ? &deadline : nullptr;
  bt.cancel = options.cancel;
  bt.budget = options.memory_budget;
  bt.equivalence = options.equivalence;
  bt.callback = options.callback;
  bt.profile = profile != nullptr ? &profile->backtrack : nullptr;
  bt.progress = options.progress;
  bt.progress_interval_ms = options.progress_interval_ms;

  Stopwatch search_timer;
  result->threads_used = threads;
  if (threads == 1) {
    Backtracker backtracker(query, dag, cs, order_weights, data.NumVertices(),
                            &context->backtrack_scratch(0));
    AddStats(backtracker.Run(bt), result);
  } else {
    RunWorkers(query, dag, cs, order_weights, data.NumVertices(), options,
               std::move(bt), threads, context, result);
  }
  result->search_ms = search_timer.ElapsedMs();
  if (profile != nullptr) profile->search_ms = result->search_ms;
  if (options.memory_budget != nullptr && options.memory_budget->exhausted()) {
    // The budget may latch between the search's sampled polls and its last
    // return; report exhaustion whenever the flag is up so the outcome is
    // deterministic for a given schedule.
    result->resource_exhausted = true;
  }
}

// The whole pipeline over `context`'s arena: DafMatch and ParallelDafMatch.
ParallelMatchResult Match(const Graph& query, const Graph& data,
                          const MatchOptions& options, uint32_t threads,
                          MatchContext* context) {
  ParallelMatchResult result;
  if (query.NumVertices() == 0) {
    result.ok = false;
    result.error = "empty query graph";
    return result;
  }
  obs::SearchProfile* profile = options.profile;
  if (profile != nullptr) profile->Reset();
  // The arena epoch of this run: invalidates the previous run's CS/weights.
  context->arena().Reset();
  // Charges the warm arena's retained capacity up front and every block
  // acquired during the run; detached on return.
  ArenaBudgetScope budget_scope(context, options.memory_budget);
  Deadline deadline(options.time_limit_ms);
  PreparedQuery prefix;
  if (BuildPrefix(query, data, options, deadline, context, &prefix, &result) ==
          StopCause::kNone &&
      !prefix.cs_certified_negative) {
    Search(query, prefix.dag, prefix.cs, prefix.weights, data, options,
           deadline, threads, context, &result);
  }
  FillMemoryProfile(profile, context, options.memory_budget);
  return result;
}

// Names the first CS-shaping option on which `options` disagrees with the
// fingerprint `prepared` was built under, or returns null.
const char* FingerprintMismatch(const PreparedQuery& prepared,
                                const MatchOptions& options) {
  if (options.refinement_steps != prepared.refinement_steps) {
    return "refinement_steps";
  }
  if (options.use_nlf_filter != prepared.use_nlf_filter) {
    return "use_nlf_filter";
  }
  if (options.use_mnd_filter != prepared.use_mnd_filter) {
    return "use_mnd_filter";
  }
  if (options.injective != prepared.injective) return "injective";
  return nullptr;
}

// Approximate heap footprint of a finished blob, from the sizes the public
// surface exposes: the flat CS arrays dominate (Figure 9), with the weight
// array, the ancestor bitsets, and the graph itself as the other terms.
uint64_t EstimateResidentBytes(const PreparedQuery& pq) {
  const uint64_t n = pq.query.NumVertices();
  const uint64_t cands = pq.cs.TotalCandidates();
  const uint64_t cs_edges = pq.cs.TotalEdges();
  uint64_t bytes = 0;
  bytes += 32 * n + 16 * pq.query.NumEdges();        // graph CSR + labels
  bytes += n * ((n + 63) / 64) * 8 + 64 * n;         // DAG ancestors + lists
  bytes += 12 * cands;                               // cand_data + offsets
  bytes += 8 * cands;                                // weight array
  bytes += 4 * cs_edges + 8 * (cands + 2 * pq.dag.NumEdges());  // CS edges
  return bytes;
}

}  // namespace

MatchResult DafMatch(const Graph& query, const Graph& data,
                     const MatchOptions& options) {
  MatchContext context;
  return DafMatch(query, data, options, &context);
}

MatchResult DafMatch(const Graph& query, const Graph& data,
                     const MatchOptions& options, MatchContext* context) {
  return Match(query, data, options, 1, context);
}

ParallelMatchResult ParallelDafMatch(const Graph& query, const Graph& data,
                                     const MatchOptions& options,
                                     uint32_t num_threads,
                                     MatchContext* context) {
  MatchContext local_context;
  return Match(query, data, options, std::max(num_threads, 1u),
               context != nullptr ? context : &local_context);
}

PrepareOutcome PrepareQuery(const Graph& query, const Graph& data,
                            const MatchOptions& options) {
  PrepareOutcome outcome;
  if (query.NumVertices() == 0) {
    outcome.ok = false;
    outcome.error = "empty query graph";
    return outcome;
  }
  auto pq = std::make_shared<PreparedQuery>();
  pq->query = query;
  pq->refinement_steps = options.refinement_steps;
  pq->use_nlf_filter = options.use_nlf_filter;
  pq->use_mnd_filter = options.use_mnd_filter;
  pq->injective = options.injective;
  Deadline deadline(options.time_limit_ms);
  // Every search over the blob reports the counters again.
  MatchResult counters;
  outcome.interrupted = BuildPrefix(pq->query, data, options, deadline,
                                    /*context=*/nullptr, pq.get(), &counters);
  // An interrupted build never yields a blob (no half-built cache entries).
  if (outcome.interrupted != StopCause::kNone) return outcome;
  pq->resident_bytes = EstimateResidentBytes(*pq);
  outcome.prepared = std::move(pq);
  return outcome;
}

ParallelMatchResult DafMatchPrepared(const PreparedQuery& prepared,
                                     const Graph& data,
                                     const MatchOptions& options,
                                     uint32_t threads, MatchContext* context) {
  ParallelMatchResult result;
  if (const char* field = FingerprintMismatch(prepared, options)) {
    result.ok = false;
    result.error = std::string("options.") + field +
                   " differs from the value the prepared query was built with";
    return result;
  }
  result.cs_candidates = prepared.cs.TotalCandidates();
  result.cs_edges = prepared.cs.TotalEdges();
  obs::SearchProfile* profile = options.profile;
  if (profile != nullptr) profile->Reset();
  Deadline deadline(options.time_limit_ms);
  const StopCondition stop(options.time_limit_ms > 0 ? &deadline : nullptr,
                           options.cancel, options.memory_budget);
  if (prepared.cs_certified_negative) {
    // The certificate came from an uninterrupted build, so it stays valid
    // no matter what this run's budget does.
    result.cs_certified_negative = true;
  } else if (StopCause cause = stop.Check(); cause != StopCause::kNone) {
    SetStopFlags(cause, &result);
  } else {
    MatchContext local_context;
    Search(prepared.query, prepared.dag, prepared.cs, prepared.weights, data,
           options, deadline, std::max(threads, 1u),
           context != nullptr ? context : &local_context, &result);
  }
  // The CS and weights live in the blob: the run neither resets nor grows
  // the context arena, so only the budget ledger is reported.
  FillMemoryProfile(profile, nullptr, options.memory_budget);
  return result;
}

uint64_t CountAutomorphisms(const Graph& g) {
  MatchOptions options;
  options.limit = 0;
  MatchResult result = DafMatch(g, g, options);
  return result.ok ? result.embeddings : 0;
}

}  // namespace daf
