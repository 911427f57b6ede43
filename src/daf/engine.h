#ifndef DAF_DAF_ENGINE_H_
#define DAF_DAF_ENGINE_H_

#include <cstdint>
#include <string>

#include "daf/backtrack.h"
#include "daf/match_context.h"
#include "graph/graph.h"
#include "obs/metrics.h"

namespace daf {

/// Options for a full DAF match (Algorithm 1: BuildDAG + BuildCS +
/// Backtrack).
struct MatchOptions {
  /// Adaptive matching order; kPathSize is the paper's final DAF.
  MatchOrder order = MatchOrder::kPathSize;
  /// Failing-set pruning (off = the paper's DA variant).
  bool use_failing_sets = true;
  /// Defer degree-one query vertices to the end of the matching order.
  bool leaf_decomposition = true;
  /// Stop after this many embeddings (the paper uses k = 10^5); 0 = all.
  uint64_t limit = 0;
  /// Wall-clock limit covering preprocessing + search; 0 = none.
  uint64_t time_limit_ms = 0;
  /// Cooperative cancellation (not owned): polled together with the
  /// deadline through one StopCondition in both the CS build loops and the
  /// backtracker, so a Cancel() from another thread stops a running match
  /// within a few thousand node expansions. A cancelled run reports
  /// `MatchResult::cancelled` with partial counts; see util/stop.h.
  const CancelToken* cancel = nullptr;
  /// Optional memory budget (not owned): the context arena and the CS build
  /// staging buffers charge it as they grow, and its `exhausted()` flag is
  /// polled through the same StopCondition as deadline/cancel. An exhausted
  /// run stops cooperatively and reports `MatchResult::resource_exhausted`
  /// with exact partial counts — never a certified-negative claim. The arena
  /// is detached from the budget before DafMatch returns, so a stack-local
  /// budget is safe. See docs/ROBUSTNESS.md.
  MemoryBudget* memory_budget = nullptr;
  /// Number of DAG-graph DP passes when building the CS (paper: 3).
  int refinement_steps = 3;
  /// CS local filters (ablation knobs; the paper has both on).
  bool use_nlf_filter = true;
  bool use_mnd_filter = true;
  /// When false, enumerates graph *homomorphisms* (injectivity dropped)
  /// instead of embeddings — the mapping class of Section 2 that weak
  /// embeddings are built from.
  bool injective = true;
  /// Data-vertex equivalence for DAF-Boost; null disables boosting.
  const VertexEquivalence* equivalence = nullptr;
  /// How ParallelDafMatch distributes work (ignored by single-threaded
  /// DafMatch). kWorkStealing splits subtree candidate ranges on demand;
  /// kRootCursor is the paper's Appendix A.4 root-partitioning baseline.
  ParallelStrategy parallel_strategy = ParallelStrategy::kWorkStealing;
  /// Minimum unclaimed candidates a frame needs before it may be split for
  /// donation (kWorkStealing only; clamped to >= 1). 1 forces maximal
  /// splitting — the stress-test configuration.
  uint32_t split_threshold = 8;
  /// Optional per-embedding callback.
  EmbeddingCallback callback;
  /// Opt-in search profile (not owned): stage timers, CS prune counts,
  /// backtrack prune breakdowns, depth histogram. Reset by the run it is
  /// attached to. Null (the default) disables all instrumentation; results
  /// are then bit-identical to an unprofiled run. See obs/metrics.h and
  /// docs/OBSERVABILITY.md.
  obs::SearchProfile* profile = nullptr;
  /// Optional sampled progress hook for long searches (embeddings/sec
  /// snapshots at most once per `progress_interval_ms`; piggybacks on the
  /// deadline-check cadence, so it is safe on hot paths).
  obs::ProgressFn progress;
  double progress_interval_ms = 1000;
};

/// Result of a full DAF match.
struct MatchResult {
  bool ok = true;          // false => `error` explains why nothing ran
  std::string error;
  uint64_t embeddings = 0;
  uint64_t recursive_calls = 0;
  bool limit_reached = false;
  bool timed_out = false;
  /// True when MatchOptions::cancel stopped the run (during preprocessing
  /// or mid-search); embeddings/recursive_calls then hold partial counts,
  /// exactly like the deadline path.
  bool cancelled = false;
  /// True when MatchOptions::memory_budget latched exhausted during the run
  /// (over-limit charge, external MarkExhausted, or an injected allocation
  /// fault). Counts are valid partial counts, like the deadline/cancel
  /// paths; the run is never reported as certified-negative.
  bool resource_exhausted = false;
  /// True when some candidate set was empty after CS construction, so the
  /// query was proven negative without any backtracking (Appendix A.3).
  bool cs_certified_negative = false;
  /// Stage wall times. Both are populated on *every* path, including
  /// early exits (cs_certified_negative, a timeout during preprocessing,
  /// or an input error): search_ms is 0 when the search never ran.
  double preprocess_ms = 0;  // BuildDAG + BuildCS + weight array
  double search_ms = 0;      // backtracking
  uint64_t cs_candidates = 0;  // Σ_u |C(u)| (Figure 9 metric)
  uint64_t cs_edges = 0;

  /// True iff the search ran to completion (all embeddings enumerated):
  /// not stopped by the limit, the deadline, a cancel request, or memory
  /// exhaustion.
  bool Complete() const {
    return ok && !limit_reached && !timed_out && !cancelled &&
           !resource_exhausted;
  }
};

/// Runs DAF end-to-end on (query, data) using `context` for all per-query
/// memory: the flat CS and weight arrays come out of its bump arena, and
/// the backtracker's tables out of its reusable scratch. Repeated calls
/// with the same context reuse that memory — the second and every later
/// call on a warmed context performs zero arena block allocations (see
/// MatchContext and SearchProfile::memory). `context` must be non-null and
/// must not serve two concurrent calls. The query must be non-empty;
/// disconnected queries are supported via per-component query DAGs (an
/// extension over the paper, which assumes connected graphs).
MatchResult DafMatch(const Graph& query, const Graph& data,
                     const MatchOptions& options, MatchContext* context);

/// Convenience overload creating a fresh context per call (one-shot
/// matching; long-lived callers should hold a MatchContext instead).
MatchResult DafMatch(const Graph& query, const Graph& data,
                     const MatchOptions& options = {});

/// Number of automorphisms of g (embeddings of g in itself), computed by
/// DAF. Useful to convert embedding counts into unordered occurrence
/// counts: occurrences = embeddings / automorphisms.
uint64_t CountAutomorphisms(const Graph& g);

}  // namespace daf

#endif  // DAF_DAF_ENGINE_H_
