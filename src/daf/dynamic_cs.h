#ifndef DAF_DAF_DYNAMIC_CS_H_
#define DAF_DAF_DYNAMIC_CS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "dyn/delta_graph.h"
#include "dyn/update_batch.h"
#include "graph/graph.h"
#include "util/bitset.h"

namespace daf::dyn {

/// Incrementally maintained candidate sets for one standing query over the
/// CSR snapshots of a dynamic graph — the dynamic counterpart of
/// CandidateSpace's DP-refined C(u) sets, extended from build-once to
/// maintain-under-updates.
///
/// What is maintained is the candidate *membership bitmaps* only (one
/// Bitset over data vertices per query vertex), not the CS edge arrays:
/// the delta enumerator checks adjacency directly against the snapshot,
/// so edges need not be materialized. Snapshots are read by original label
/// (a Graph::DenseLabel lookup per use: a batch that adds a label shifts
/// the dense ids). The maintained invariant is
///
///   cand(u) ⊇ { v : some embedding of the query in the current graph
///               maps u to v }                                (soundness)
///
/// i.e. the bitmaps are a *conservative superset* of the from-scratch CS
/// candidates — pruning with them never loses an embedding, which is all
/// enumeration needs. They may be slightly larger than a fresh build (the
/// incremental path applies label/degree/NLF local filters plus full
/// arc-consistency over all query neighbors, but skips the MND filter and
/// the exact weak-embedding DP), trading a few extra candidates for
/// touching only the dirty region.
///
/// Per batch, `Apply(g, net)` runs against the post-batch snapshot `g`:
///   1. *Addition flood* — C_ini-style unconditional adds (local filters
///      only, no support check) seeded at inserted-edge endpoints and new
///      vertices, propagating through *absent* eligible pairs along
///      label-compatible adjacency. The flood is unconditional because a
///      support-checked additive fixpoint deadlocks on cyclic dependencies
///      (a brand-new triangle: each pair's support is another absent
///      pair); flooding first and pruning after breaks the cycle.
///   2. *Removal refinement* — a worklist of (query vertex, data vertex)
///      pairs seeded at removed vertices, removed-edge endpoints, and all
///      flooded pairs, each re-checked with the full filter (local +
///      arc-consistency: every query neighbor must have a label-and-
///      edge-label-compatible adjacent candidate); removals cascade to
///      adjacent pairs. Decreasing, hence terminating; every removal is
///      justified by a violated necessary condition, hence sound.
/// When the dirty region (flooded + re-checked pairs) exceeds the budget,
/// the incremental pass aborts into a full from-scratch rebuild
/// (QueryDag + CandidateSpace::Build on the snapshot), which is also the
/// initial-construction path.
class DynamicCandidateSpace {
 public:
  struct Options {
    /// Mirror of CandidateSpace::Options for the rebuild path; the
    /// incremental path honors use_nlf_filter/injective and ignores
    /// use_mnd_filter (MND cascades through neighbor degrees and is not
    /// worth tracking incrementally — skipping it only grows the set).
    int refinement_steps = 3;
    bool use_nlf_filter = true;
    bool use_mnd_filter = true;
    bool injective = true;
    /// Dirty-pair budget: rebuild when flood+recheck work exceeds
    /// max(rebuild_min_dirty_pairs,
    ///     rebuild_dirty_fraction * current total candidates).
    double rebuild_dirty_fraction = 0.5;
    uint64_t rebuild_min_dirty_pairs = 1024;
  };

  /// Outcome of one Apply, for metrics and tests.
  struct MaintainStats {
    bool rebuilt = false;
    uint64_t dirty_pairs = 0;    // flood adds + worklist re-checks
    uint64_t added_pairs = 0;    // net additions to the bitmaps
    uint64_t removed_pairs = 0;  // net removals from the bitmaps
  };

  /// Builds the initial candidate sets for `query` against snapshot `g`
  /// (a full from-scratch build). The snapshot is not retained.
  DynamicCandidateSpace(const Graph& query, const Graph& g, Options options);

  /// Advances the candidate sets across one applied batch: `g` is the
  /// post-batch snapshot and `net` the net batch that produced it
  /// (DeltaGraph::Normalize / ApplyBatch), once per version step.
  MaintainStats Apply(const Graph& g, const NormalizedBatch& net);

  /// Full from-scratch rebuild against snapshot `g`.
  void Rebuild(const Graph& g);

  // DeltaGraph forwarding overloads for perfbench's TraceBatches (with
  // DeltaEnumerator's two); the next benchmark change deletes all four.
  DynamicCandidateSpace(const Graph& query, const DeltaGraph& dg,
                        Options options)
      : DynamicCandidateSpace(query, *dg.Materialize(), options) {}
  MaintainStats Apply(const DeltaGraph& dg, const NormalizedBatch& net) {
    return Apply(*dg.Materialize(), net);
  }

  /// Candidate membership.
  bool Has(VertexId u, VertexId v) const { return cand_[u].Test(v); }
  const Bitset& Candidates(VertexId u) const { return cand_[u]; }

  uint32_t NumQueryVertices() const {
    return static_cast<uint32_t>(cand_.size());
  }
  uint64_t TotalCandidates() const { return total_candidates_; }

  /// True when some query vertex has no candidates — no embedding can
  /// exist (the converse does not hold).
  bool EmptySomewhere() const;

  const Graph& query() const { return query_; }
  const Options& options() const { return options_; }

 private:
  bool LocalCheck(const Graph& g, VertexId u, VertexId v) const;
  bool FullCheck(const Graph& g, VertexId u, VertexId v) const;

  Graph query_;
  Options options_;
  /// Per query vertex: required data-vertex label, original space.
  std::vector<Label> required_label_;
  /// Per query vertex: NLF profile (original label -> required count),
  /// sorted by label.
  std::vector<std::vector<std::pair<Label, uint32_t>>> nlf_;
  /// Per query vertex: (neighbor query vertex, required edge label).
  std::vector<std::vector<std::pair<VertexId, Label>>> adj_;
  std::vector<Bitset> cand_;
  uint64_t total_candidates_ = 0;
};

}  // namespace daf::dyn

#endif  // DAF_DAF_DYNAMIC_CS_H_
