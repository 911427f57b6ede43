#ifndef DAF_DAF_PREPARED_H_
#define DAF_DAF_PREPARED_H_

#include <cstdint>
#include <memory>

#include "daf/candidate_space.h"
#include "daf/engine.h"
#include "daf/parallel.h"
#include "daf/query_dag.h"
#include "daf/weights.h"
#include "graph/graph.h"

namespace daf {

/// The shareable, immutable prefix of the DAF pipeline for one (query, data
/// graph) pair: the rooted query DAG, the fully built CandidateSpace (self-
/// owned storage — no arena to outlive), and the path-size weight array.
/// All three are pure functions of (query, data, CS build options), so one
/// PreparedQuery may serve any number of concurrent read-only searches —
/// this is the artifact the service-level query cache stores and leases.
///
/// Build once with PrepareQuery, then run any number of searches with
/// DafMatchPrepared, each skipping BuildDAG, CS construction, and the
/// weight pass entirely. (DafMatch builds the same prefix internally, with
/// the CS and weights in its context arena and `query` left empty.)
struct PreparedQuery {
  /// The query graph the structures below were built for. Searches run
  /// against *this* graph; callers matching a relabeled isomorph must remap
  /// embeddings through their permutation.
  Graph query;
  QueryDag dag;
  CandidateSpace cs;
  /// Path-size order weights over `cs` (valid while `cs` lives; unused by
  /// kCandidateSize runs).
  WeightArray weights;
  /// True when some candidate set came out empty: the CS certifies the
  /// query negative and every search returns immediately (Appendix A.3).
  bool cs_certified_negative = false;
  /// Approximate heap footprint of the blob (CS arrays + weights + graph
  /// + DAG), for cache residency accounting.
  uint64_t resident_bytes = 0;
  /// The CS-shaping options fingerprint this blob was built under.
  int refinement_steps = 3;
  bool use_nlf_filter = true;
  bool use_mnd_filter = true;
  bool injective = true;
};

/// Outcome of PrepareQuery: either a prepared blob, or the stop cause that
/// interrupted the build (deadline / cancel / memory exhaustion — the
/// `prepared` pointer is then null and nothing was retained).
struct PrepareOutcome {
  std::shared_ptr<const PreparedQuery> prepared;
  StopCause interrupted = StopCause::kNone;
  bool ok = true;  // false => `error` (empty query, ...)
  std::string error;
};

/// Builds the shareable prefix once: BuildDAG + standalone CS construction
/// + weight array. Honors `options.cancel`, `options.time_limit_ms`, and
/// `options.memory_budget` through the engine's usual StopCondition, so a
/// cache-filling build is exactly as cancellable as a cold match; an
/// interrupted build returns no blob (never a half-built one). Only the
/// CS-shaping options (refinement_steps, nlf/mnd filters, injective) affect
/// the result; search-time options are applied per run.
PrepareOutcome PrepareQuery(const Graph& query, const Graph& data,
                            const MatchOptions& options);

/// Runs the DAF search against a prebuilt PreparedQuery, skipping all
/// preprocessing: semantically identical to ParallelDafMatch(prepared.query,
/// data, options, threads, context) — same embedding set, same counters —
/// with preprocess_ms ~ 0. `threads == 1` (the default) searches inline on
/// the caller's thread like DafMatch; more threads run the work-stealing
/// (or root-cursor) engine over the shared blob. The blob is only read, so
/// any number of concurrent calls may share it; each call still needs its
/// own `context` (or nullptr for a private one), whose arena it leaves
/// untouched. `options` must agree with the blob's CS fingerprint
/// (refinement_steps, nlf/mnd filters, injective): on a mismatch nothing
/// runs and the result is ok == false with an error naming the field.
ParallelMatchResult DafMatchPrepared(const PreparedQuery& prepared,
                                     const Graph& data,
                                     const MatchOptions& options,
                                     uint32_t threads = 1,
                                     MatchContext* context = nullptr);

}  // namespace daf

#endif  // DAF_DAF_PREPARED_H_
