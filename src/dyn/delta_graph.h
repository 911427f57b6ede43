#ifndef DAF_DYN_DELTA_GRAPH_H_
#define DAF_DYN_DELTA_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dyn/update_batch.h"
#include "graph/graph.h"

namespace daf::dyn {

/// A versioned dynamic-graph layer over the immutable CSR Graph: a *base*
/// snapshot plus a per-vertex adjacency overlay holding the edges inserted
/// and removed since the owner's last Compact(); the graph never folds on
/// its own. Batches apply atomically (all-or-nothing) and advance a
/// monotonically increasing version id.
///
/// Identity and labels:
///   * Vertex ids are stable for the lifetime of a DeltaGraph — Compact()
///     never renumbers. Removed vertices become *tombstones*: they keep
///     their id, lose all edges, and take the reserved kTombstoneLabel so
///     no query label can ever match them again.
///   * All label queries on this class are in the *original* (caller)
///     label space, not any snapshot's dense remap — dense label ids shift
///     whenever a batch introduces a new label, so nothing dynamic may key
///     on them. Materialized snapshots translate internally.
///   * Edge labels are verbatim (never remapped), as in Graph.
///
/// Concurrency: ApplyBatch/Compact are writer operations and must be
/// externally serialized (MatchService holds one update mutex); all read
/// accessors are safe against concurrent *reads* only. Snapshots returned
/// by Materialize are immutable and may be shared freely across threads.
class DeltaGraph {
 public:
  /// Label given to removed vertices; queries never carry it.
  static constexpr Label kTombstoneLabel = static_cast<Label>(-2);

  explicit DeltaGraph(Graph base)
      : DeltaGraph(std::move(base), 0, /*restore=*/false) {}

  /// Restoring constructor (crash recovery): `base` is a materialized
  /// snapshot taken at `initial_version` — versioning resumes there
  /// instead of 0, so query-cache keys and subscriber resync markers stay
  /// monotone across a restart. Unlike the plain constructor, vertices
  /// carrying kTombstoneLabel in `base` are restored as *dead* tombstones
  /// (a materialized snapshot keeps them as isolated labeled vertices).
  static DeltaGraph Restore(Graph base, uint64_t initial_version) {
    return DeltaGraph(std::move(base), initial_version, /*restore=*/true);
  }

  DeltaGraph(const DeltaGraph&) = delete;
  DeltaGraph& operator=(const DeltaGraph&) = delete;
  DeltaGraph(DeltaGraph&&) = default;
  DeltaGraph& operator=(DeltaGraph&&) = default;

  // --- Versioning.

  /// Number of successfully applied batches; the initial graph is v0.
  uint64_t version() const { return version_; }

  // --- Writer operations (externally serialized).

  /// Computes the net effect of `batch` against the current state (see
  /// NormalizedBatch). Pure: does not modify the graph. Returns false with
  /// `*error` set when the batch is invalid (an endpoint id out of range,
  /// an operation on a tombstoned vertex, ...); partial application never
  /// happens because validation precedes any mutation in ApplyBatch.
  bool Normalize(const UpdateBatch& batch, NormalizedBatch* out,
                 std::string* error) const;

  /// Applies `batch` atomically: validates + normalizes, then installs the
  /// net changes and bumps the version. On failure (validation error or an
  /// injected `delta_apply` fault) the graph is untouched and the version
  /// does not advance. When `normalized` is non-null the net change set is
  /// returned to the caller (the seed list for CS maintenance and delta
  /// enumeration).
  ApplyResult ApplyBatch(const UpdateBatch& batch,
                         NormalizedBatch* normalized = nullptr);

  /// Installs an already-normalized net change verbatim: the WAL replay
  /// path, and MatchService's install of the batch it normalized itself.
  /// `net` must be exactly what Normalize produced against this version of
  /// the graph (persist::WalRecord stores it), and
  /// `new_vertex_labels` the labels of `net.new_vertices` in order. No
  /// re-normalization happens — re-deriving the net change from a raw
  /// batch would let removals shadow a label-change's reinsertion — and no
  /// fault point is polled, so replay is deterministic. A record that
  /// does not fit the graph is rejected with the graph and version
  /// untouched: ids out of range, misaligned labels, a remove of an absent
  /// edge, an insert of a present edge (unless the record removes it
  /// first — a label change), an insert touching a tombstone, or a
  /// removed vertex that would keep edges.
  ApplyResult ApplyNormalized(const NormalizedBatch& net,
                              const std::vector<Label>& new_vertex_labels);

  /// The one fold: makes the current snapshot (Materialize, a cache hit
  /// when this version is built) the new base and clears the overlay. Ids
  /// are preserved; tombstones stay as isolated kTombstoneLabel vertices.
  /// Reads before/after agree, and the snapshot stays cached.
  void Compact();

  // --- Read interface (original label space). Standing-query code reads
  // Materialize()'s snapshots instead.

  uint32_t NumVertices() const {
    return static_cast<uint32_t>(labels_.size());
  }
  uint64_t NumEdges() const { return num_edges_; }
  uint64_t OverlayEdges() const {
    return added_count_ + removed_count_;
  }

  bool Alive(VertexId v) const { return alive_[v]; }

  /// Original-space label of v (kTombstoneLabel once removed).
  Label OriginalLabel(VertexId v) const { return labels_[v]; }

  uint32_t Degree(VertexId v) const { return degree_[v]; }

  /// True iff the undirected edge (u, v) currently exists.
  bool HasEdge(VertexId u, VertexId v) const;

  /// An immutable CSR snapshot of the current state (ids preserved,
  /// tombstones as isolated kTombstoneLabel vertices). Built in O(V + E)
  /// (plus sorting each vertex's overlay lists) by merging every base row
  /// with its overlay into Graph::FromCsrParts, which re-validates the
  /// result. Cached: repeated calls at the same version return the same
  /// instance, and ApplyBatch invalidates the cache, so a static workload
  /// pays for at most one materialization per version actually queried.
  std::shared_ptr<const Graph> Materialize() const;

  /// Current edge list with labels ((u, v) with u < v), for tests.
  std::vector<std::pair<Edge, Label>> CurrentEdges() const;

 private:
  DeltaGraph(Graph base, uint64_t initial_version, bool restore);

  /// The shared install path of ApplyBatch and ApplyNormalized: pushes new
  /// vertices, uninstalls removes, installs inserts, tombstones removed
  /// vertices and bumps the version; the caller validated preconditions.
  ApplyResult Install(const NormalizedBatch& net,
                      const std::vector<Label>& new_vertex_labels);

  /// Per-vertex overlay, stored *symmetrically*: an added edge (u, v)
  /// appears in both endpoints' `added` lists and a removed base edge in
  /// both endpoints' `removed` lists, so every per-vertex read is local.
  struct Overlay {
    /// Edges added since the last Compact(): (neighbor, edge label),
    /// unordered. Small per vertex; linear scans are fine.
    std::vector<std::pair<VertexId, Label>> added;
    /// Far ends of the base edges removed since the last Compact(),
    /// ascending. A sorted vector rather than a hash set: a lookup is a
    /// binary search, and replaying or compacting a large overlay
    /// allocates and frees per vertex instead of per edge.
    std::vector<VertexId> removed;

    bool Removed(VertexId w) const {
      return !removed.empty() &&
             std::binary_search(removed.begin(), removed.end(), w);
    }
  };

  /// Invokes fn(neighbor, edge_label) for every current neighbor of v, in
  /// unspecified order. `fn` returning false stops the iteration early.
  template <typename Fn>
  void ForEachNeighbor(VertexId v, Fn&& fn) const {
    const Overlay* ov = OverlayFor(v);
    if (InBase(v)) {
      const Graph& b = *base_;
      auto neighbors = b.Neighbors(v);
      auto elabels = b.NeighborEdgeLabels(v);
      for (size_t i = 0; i < neighbors.size(); ++i) {
        if (ov != nullptr && ov->Removed(neighbors[i])) continue;
        if (!fn(neighbors[i], elabels[i])) return;
      }
    }
    if (ov != nullptr) {
      for (const auto& [w, l] : ov->added) {
        if (!fn(w, l)) return;
      }
    }
  }

  bool InBase(VertexId v) const { return v < base_->NumVertices(); }
  const Overlay* OverlayFor(VertexId v) const {
    return v < overlay_.size() ? &overlay_[v] : nullptr;
  }
  /// Grows the overlay to cover every current vertex at once, so a
  /// reference returned for one endpoint survives the call for the other.
  Overlay& MutableOverlay(VertexId v) {
    if (overlay_.size() < NumVertices()) overlay_.resize(NumVertices());
    return overlay_[v];
  }

  void InstallEdge(VertexId u, VertexId v, Label edge_label);
  void UninstallEdge(VertexId u, VertexId v);
  bool EdgeInBase(VertexId u, VertexId v, Label* label_out) const;
  bool OverlayEdgeLabel(VertexId u, VertexId v, Label* label_out) const;
  /// Current existence + label of (u, v), overlay-aware.
  bool EdgeLabelNow(VertexId u, VertexId v, Label* label_out) const;

  std::shared_ptr<const Graph> base_;
  std::vector<Label> labels_;   // original space; kTombstoneLabel when dead
  std::vector<uint8_t> alive_;
  std::vector<uint32_t> degree_;
  std::vector<Overlay> overlay_;  // by vertex id; empty after Compact()
  uint64_t num_edges_ = 0;
  uint64_t added_count_ = 0;    // overlay insertions
  uint64_t removed_count_ = 0;  // overlay removals of base edges
  uint64_t version_ = 0;
  mutable std::shared_ptr<const Graph> snapshot_;  // cache for Materialize
  mutable uint64_t snapshot_version_ = 0;
};

}  // namespace daf::dyn

#endif  // DAF_DYN_DELTA_GRAPH_H_
