#ifndef DAF_DAF_MATCH_CONTEXT_H_
#define DAF_DAF_MATCH_CONTEXT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/arena.h"
#include "util/bitset.h"
#include "util/intersect.h"

namespace daf {

/// Reusable build-time scratch of CandidateSpace::Build: the flat staging
/// buffers the candidate sets and CS edges are assembled in before being
/// committed to their final (arena or self-owned) storage. All vectors keep
/// their capacity across queries, so a warm scratch makes CS construction
/// allocation-free in steady state.
struct CsBuildScratch {
  std::vector<VertexId> cand_data;    // per-u candidate segments, in u order
  std::vector<uint64_t> cand_offsets; // n+1 segment starts into cand_data
  std::vector<uint32_t> cand_size;    // live candidates per u after refinement
  std::vector<Bitset> valid;          // per-u membership bitmap over V(G)
  std::vector<uint32_t> cand_index;   // data vertex -> index within C(u)
  std::vector<uint64_t> edge_seg_base;  // per DAG edge: base into edge_offsets
  std::vector<uint64_t> edge_offsets;   // absolute starts into edge_targets
  std::vector<uint32_t> edge_targets;   // child candidate indices, all edges
  std::vector<std::pair<Label, uint32_t>> nlf_profile;
  std::vector<Label> neighbor_labels;
  std::vector<Label> required_edge_label;
};

/// One candidate class that failed under DAF-Boost: every class member is
/// skipped and (with failing sets on) contributes this failing set.
struct FailedClass {
  uint32_t class_id;
  Bitset failing_set;  // only meaningful when failing sets are enabled
};

/// One open sibling loop of the search, tracked only under the
/// work-stealing engine: the extendable vertex being enumerated at `depth`,
/// the next unclaimed index into its candidate list, and the (donation-
/// shrinkable) end of the range. `donated` poisons the frame's failing-set
/// certificate: a frame that gave part of its range away never computed all
/// of its children, so it must not report the Case 2.2 union upward.
struct SearchFrame {
  VertexId u = kInvalidVertex;
  uint32_t depth = 0;
  uint32_t next = 0;  // next candidate index the owner will claim
  uint32_t end = 0;   // exclusive; donation moves it down
  bool donated = false;
};

/// Reusable per-worker state of one Backtracker: the mapping arrays, the
/// visited (mapped-by) table over V(G), the failing-set stacks, and the
/// extendable-candidate buffers. ResizeForQuery re-dimensions everything
/// while retaining capacity, so repeated searches of similarly sized
/// queries allocate nothing.
struct BacktrackScratch {
  std::vector<uint32_t> mapped_cand_idx;
  std::vector<VertexId> mapped_vertex;
  std::vector<uint32_t> num_mapped_parents;
  std::vector<std::vector<uint32_t>> extendable_cands;
  std::vector<uint64_t> extendable_weight;
  std::vector<bool> is_leaf;
  std::vector<VertexId> mapped_by;
  std::vector<VertexId> extendable_list;
  std::vector<Bitset> fs_stack;
  std::vector<bool> fs_empty;
  std::vector<Bitset> fs_union;
  std::vector<std::vector<FailedClass>> failed_classes;
  // Buffers of the k-way candidate intersection (ComputeExtendableCandidates
  // hands every parent adjacency list to IntersectKWay at once): the input
  // views plus the kernels' ping-pong/bitmap scratch. Both retain capacity
  // across runs.
  std::vector<KWayList> intersect_inputs;
  KWayScratch intersect_scratch;
  std::vector<VertexId> embedding_buffer;
  // Work-stealing state (unused by single-threaded / root-cursor runs):
  // the vertices currently mapped in mapping order (map_stack[d] is the
  // vertex mapped at depth d — donation slices its first `depth` entries
  // into a task prefix), and the stack of open sibling loops.
  std::vector<VertexId> map_stack;
  std::vector<SearchFrame> frames;

  /// Sizes every buffer for an n-vertex query over a data graph with
  /// `data_n` vertices and resets their contents to the pre-search state.
  void ResizeForQuery(uint32_t n, uint32_t data_n);
};

/// Memory and scratch state reused across match runs (the "warm engine"
/// contract): a bump arena holding each query's flat candidate-space and
/// weight arrays, the CS build scratch, and one BacktrackScratch per
/// worker thread.
///
///   daf::MatchContext context;
///   for (const Graph& query : queries) {
///     daf::MatchResult r = daf::DafMatch(query, data, options, &context);
///   }
///
/// The second and every later call on a warmed context performs zero arena
/// block allocations (observable via arena_stats().blocks_acquired and the
/// SearchProfile memory counters). A context may be reused across different
/// queries and data graphs — buffers grow to the high-water mark and stay
/// there (call arena_stats() / Trim() if that is a concern).
///
/// Thread safety: a context serves one match run at a time. Parallel runs
/// (ParallelDafMatch) share one context — it hands each worker its own
/// scratch — but two concurrent DafMatch calls must use two contexts.
class MatchContext {
 public:
  MatchContext() = default;
  MatchContext(const MatchContext&) = delete;
  MatchContext& operator=(const MatchContext&) = delete;

  /// Counters of the arena backing the flat per-query structures. After a
  /// run, `blocks_acquired` is the number of system allocations that run
  /// performed (0 once warm) and `bytes_used` the footprint of its CS +
  /// weight arrays.
  const ArenaStats& arena_stats() const { return arena_.stats(); }

  /// Releases all retained memory (arena blocks and scratch capacity); the
  /// next run re-warms from scratch.
  void Trim();

  /// Partial Trim: resets the arena epoch and drops retained arena blocks
  /// (largest first) until at most `retained_bytes` of capacity remain.
  /// Scratch buffers are kept — the ContextPool's footprint-shedding policy
  /// targets the arena because that is where the per-query flat arrays (the
  /// Figure 9 blow-up) live. Invalidates the previous run's CS/weights.
  void ShrinkTo(uint64_t retained_bytes);

  // --- Engine-facing surface (used by DafMatch / ParallelDafMatch /
  // CandidateSpace::Build; user code normally only constructs a context
  // and passes it around).

  /// The arena holding the current query's flat arrays. The engine resets
  /// it at the start of each run, invalidating the previous run's
  /// CandidateSpace and WeightArray.
  Arena& arena() { return arena_; }

  CsBuildScratch& cs_scratch() { return cs_scratch_; }

  /// Scratch of worker `thread` (grown on demand; call EnsureThreads
  /// before handing scratches to concurrent workers).
  BacktrackScratch& backtrack_scratch(uint32_t thread = 0);

  /// Pre-creates scratches 0..count-1 so concurrent workers never mutate
  /// the scratch vector itself.
  void EnsureThreads(uint32_t count);

 private:
  Arena arena_;
  CsBuildScratch cs_scratch_;
  std::vector<BacktrackScratch> backtrack_scratch_;
};

}  // namespace daf

#endif  // DAF_DAF_MATCH_CONTEXT_H_
