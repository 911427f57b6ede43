#ifndef DAF_OBS_METRICS_H_
#define DAF_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace daf::obs {

/// Observability primitives for the DAF pipeline.
///
/// A `SearchProfile` is an opt-in, per-query record of *why* a match run
/// cost what it cost: wall time per pipeline stage, per-filter prune counts
/// during CS construction, and per-cause prune counts plus a search-tree
/// depth histogram during backtracking. All instrumentation sites are
/// null-checked, so a run with no profile attached pays only an untaken
/// branch per event and produces bit-identical results (embeddings,
/// recursive calls) to an uninstrumented build.
///
/// The structs here are plain counters with no dependency on the engine
/// types; `daf/` modules depend on this header, never the reverse. JSON
/// serialization lives in obs/json.h.

/// One DAG-graph DP refinement pass over the candidate sets
/// (CandidateSpace::Build, Recurrence (1) of the paper).
struct CsPassStats {
  uint32_t pass = 0;          // 0-based pass index
  bool reversed_dag = false;  // true = the pass walked q_D^{-1}
  uint64_t removed = 0;       // candidates removed by this pass
  double ms = 0;              // wall time of the pass
};

/// Prune counters and stage timers of CandidateSpace::Build.
struct CsProfile {
  // Seeding: label-matched (query vertex, data vertex) pairs examined and
  // how each local filter disposed of them.
  uint64_t seed_considered = 0;
  uint64_t degree_rejected = 0;
  uint64_t mnd_rejected = 0;   // maximum-neighbor-degree filter
  uint64_t nlf_rejected = 0;   // neighborhood-label-frequency filter
  uint64_t initial_candidates = 0;  // Σ|C_ini(u)| after the local filters

  std::vector<CsPassStats> passes;  // one entry per DP refinement pass
  uint64_t final_candidates = 0;    // Σ|C(u)| after refinement
  uint64_t edges_materialized = 0;  // CS edges N^u_{uc}(v) written

  double seed_ms = 0;    // initial candidate sets + local filters
  double refine_ms = 0;  // all DP passes
  double edges_ms = 0;   // edge materialization

  void Reset() { *this = CsProfile{}; }
};

/// Per-cause prune counters and the depth histogram of one backtracking
/// run (Backtracker::Run). In multi-threaded matches each worker fills its
/// own instance; see BacktrackProfile::MergeFrom.
struct BacktrackProfile {
  /// Emptyset-class leaves: the selected extendable vertex had no
  /// extendable candidates (C_M(u) = ∅).
  uint64_t empty_candidate_prunes = 0;
  /// Conflict-class leaves: the candidate data vertex was already mapped
  /// to another query vertex (injectivity conflict).
  uint64_t conflict_prunes = 0;
  /// Sibling candidates skipped by failing-set pruning (Lemma 6.1 /
  /// Case 2.1: the failing set of a child excluded the current vertex).
  uint64_t failing_set_skips = 0;
  /// Candidates skipped by the DAF-Boost equivalence rule (a candidate
  /// equivalent to an exhausted, embedding-free sibling).
  uint64_t boost_skips = 0;

  /// Kernel-selection counters of the extendable-candidate intersections
  /// (util/intersect.h dispatch): how many intersections ran the scalar
  /// merge, the galloping probe, or the blocked-bitmap k-way pass. Their
  /// sum is the number of kernel invocations, not of
  /// ComputeExtendableCandidates calls (a k-way fold counts one kernel per
  /// pair).
  uint64_t intersect_merge = 0;
  uint64_t intersect_gallop = 0;
  uint64_t intersect_bitmap = 0;
  /// Always 0: no vector kernel is left. Kept only because the end-to-end
  /// benchmark's per-layer record still reads it.
  uint64_t intersect_simd = 0;

  /// Deepest search-tree node examined (0 = only the root call ran).
  uint64_t peak_depth = 0;
  /// depth_histogram[d] = search-tree nodes examined at depth d. Conflict
  /// leaves count at the depth they would have been expanded at, so
  /// HistogramTotal() == BacktrackStats::recursive_calls always holds.
  std::vector<uint64_t> depth_histogram;

  uint64_t HistogramTotal() const;

  /// Accumulates `other` into this profile: counters add, histograms add
  /// element-wise (resizing to the longer one), peak depth takes the max.
  void MergeFrom(const BacktrackProfile& other);

  void Reset() { *this = BacktrackProfile{}; }
};

/// Arena/allocation counters of the MatchContext a run executed in
/// (mirrored from daf::ArenaStats after the run). `arena_blocks_acquired`
/// is the number of system allocations the context's arena performed for
/// this run — 0 on the second and every later run with a warm context (the
/// zero-steady-state-allocation contract of MatchContext reuse).
struct MemoryProfile {
  uint64_t arena_bytes = 0;            // bytes of flat CS/weight arrays
  uint64_t arena_peak_bytes = 0;       // high-water over the context's life
  uint64_t arena_blocks_acquired = 0;  // system allocations this run
  uint64_t arena_capacity_bytes = 0;   // capacity retained by the context

  // Budget ledger of the run (all zero when MatchOptions::memory_budget was
  // not set). `budget_exhausted` records that the run hit its limit — the
  // JSON counterpart of MatchResult::resource_exhausted.
  uint64_t budget_limit_bytes = 0;  // per-job limit (0 = unlimited)
  uint64_t budget_used_bytes = 0;   // bytes still charged at run end
  uint64_t budget_peak_bytes = 0;   // high-water across the run
  uint64_t budget_rejections = 0;   // charges that found the budget over
  bool budget_exhausted = false;

  void Reset() { *this = MemoryProfile{}; }
};

/// Scheduler counters of one multi-threaded run (work-stealing engine;
/// all-zero under the root-cursor strategy and in single-threaded runs).
/// `call_imbalance` is max/mean recursive calls across workers — 1.0 is a
/// perfect split, `threads` means one worker did all the work (the skew
/// failure mode root-candidate partitioning cannot fix).
struct ParallelProfile {
  uint64_t tasks_executed = 0;  // subtree tasks run (seed + donations)
  uint64_t steals = 0;          // tasks taken from another worker's deque
  uint64_t donations = 0;       // ranges split off for hungry workers
  double idle_ms = 0;           // summed worker time spent waiting for work
  double call_imbalance = 0;    // max/mean per-thread recursive calls
  std::vector<uint64_t> per_thread_calls;
  std::vector<uint64_t> per_thread_steals;

  void Reset() { *this = ParallelProfile{}; }
};

/// A sampled point-in-time view of a running search, delivered through the
/// low-overhead progress hook (see ProgressFn in MatchOptions /
/// BacktrackOptions). Sampling piggybacks on the deadline-check countdown
/// (one check every 4096 recursive calls), so an attached hook costs the
/// same as an armed deadline.
struct ProgressSnapshot {
  uint64_t embeddings = 0;       // found so far by the reporting worker
  uint64_t recursive_calls = 0;  // examined so far by the reporting worker
  double elapsed_ms = 0;         // since the worker's search started
  double embeddings_per_sec = 0;
  uint32_t thread = 0;  // reporting worker (0 in single-threaded runs)
};

using ProgressFn = std::function<void(const ProgressSnapshot&)>;

/// The full per-query profile threaded through DafMatch/ParallelDafMatch
/// via `MatchOptions::profile`. Reset at the start of every run it is
/// attached to.
struct SearchProfile {
  // Stage wall times (milliseconds).
  double dag_build_ms = 0;  // QueryDag::Build
  double cs_build_ms = 0;   // CandidateSpace::Build (== cs stage timers' sum)
  double weights_ms = 0;    // WeightArray::Compute (0 under kCandidateSize)
  double search_ms = 0;     // backtracking (all workers, wall time)

  CsProfile cs;
  /// Arena counters of the run's MatchContext (always filled — one-shot
  /// DafMatch calls run in a private context).
  MemoryProfile memory;
  /// Backtracking counters; in parallel runs this is the merge of every
  /// worker's profile.
  BacktrackProfile backtrack;
  /// Per-worker profiles; populated by ParallelDafMatch only.
  std::vector<BacktrackProfile> thread_profiles;
  /// Scheduler balance counters; populated by ParallelDafMatch only.
  ParallelProfile parallel;
  uint32_t threads = 1;

  void Reset();
};

}  // namespace daf::obs

#endif  // DAF_OBS_METRICS_H_
