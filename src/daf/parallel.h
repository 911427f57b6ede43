#ifndef DAF_DAF_PARALLEL_H_
#define DAF_DAF_PARALLEL_H_

#include <cstdint>

#include "daf/engine.h"
#include "graph/graph.h"

namespace daf {

/// Extra counters reported by the parallel engine. A one-thread run is
/// DafMatch itself: it sets `threads_used` and leaves the per-thread and
/// scheduler diagnostics below empty (its one thread made all
/// `recursive_calls`).
struct ParallelMatchResult : MatchResult {
  uint32_t threads_used = 0;
  /// Recursive calls performed by each thread (load-balance diagnostics).
  std::vector<uint64_t> per_thread_calls;
  // Work-stealing scheduler counters (all zero under kRootCursor).
  uint64_t tasks_executed = 0;  // subtree tasks run (seed + stolen)
  uint64_t steals = 0;          // tasks taken from another worker
  uint64_t donations = 0;       // candidate ranges split off for thieves
  double idle_ms = 0;           // summed time workers spent out of work
  /// max/mean per-thread recursive calls: 1.0 = perfect balance,
  /// `threads_used` = one worker did everything.
  double call_imbalance = 0;
};

/// Multi-threaded DAF: the CS is built once and shared; the search tree is
/// distributed over `num_threads` workers. Under the default
/// ParallelStrategy::kWorkStealing each worker runs subtree tasks (a partial
/// embedding prefix plus an unexplored candidate range) from per-worker
/// deques; when a worker goes idle, busy workers split the shallowest
/// still-splittable range of their own open frames and donate the upper
/// half, so a single skewed root subtree no longer serializes the run.
/// Under kRootCursor only the root's candidate iterations (line 4 of
/// Algorithm 2) are distributed through an atomic cursor, as in the paper's
/// Appendix A.4. Each worker owns its visited table and failing-set stack;
/// a shared atomic counter enforces the global embedding limit with
/// claim-before-count semantics, so the reported count equals exactly
/// min(limit, total embeddings) — identical to a single-threaded run — while
/// the *set* of embeddings found under a limit may differ across runs.
/// Without a limit the full embedding set is always produced.
/// `num_threads` 0 counts as 1; one thread runs exactly DafMatch (inline
/// on the caller's thread, no worker, lock or shared counter).
///
/// With more than one thread, `options.callback` and `options.progress`
/// are invoked under a mutex when set. When `options.profile` is set, each
/// worker fills its own obs::BacktrackProfile; the merged aggregate lands
/// in `profile->backtrack`, the per-worker breakdowns in
/// `profile->thread_profiles` (the merge equals the element-wise sum of
/// the per-thread profiles, with peak depth taken as the max), and
/// `profile->threads` and `profile->parallel` describe the split.
///
/// `context` (optional) carries the arena for the shared flat CS/weight
/// arrays and one BacktrackScratch per worker; reusing it across calls
/// gives the same zero-steady-state-allocation behavior as DafMatch with a
/// warm context. Null runs in a private context.
ParallelMatchResult ParallelDafMatch(const Graph& query, const Graph& data,
                                     const MatchOptions& options,
                                     uint32_t num_threads,
                                     MatchContext* context = nullptr);

}  // namespace daf

#endif  // DAF_DAF_PARALLEL_H_
