#ifndef DAF_DYN_UPDATE_BATCH_H_
#define DAF_DYN_UPDATE_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace daf::dyn {

/// One edge operation of an update batch. Endpoints are DeltaGraph vertex
/// ids; `edge_label` is compared verbatim (no dense remapping), 0 being the
/// "unlabeled" label, exactly as in Graph's edge labels.
struct EdgeUpdate {
  VertexId u = 0;
  VertexId v = 0;
  Label edge_label = 0;  // ignored by removals
};

/// A batch of graph updates, applied atomically by DeltaGraph::ApplyBatch:
/// either every operation takes effect and the graph version advances by
/// one, or (on validation failure / injected fault) nothing changes.
///
/// Operations are interpreted in this order: vertex additions first (each
/// gets the next dense id, so a batch may add a vertex and immediately
/// connect it), then all edge insertions, then all edge removals —
/// removals take precedence, so an edge both inserted and removed in one
/// batch ends up absent (a net no-op if it did not exist before, a net
/// removal if it did) — then vertex removals, each of which also removes
/// the vertex's remaining incident edges.
///
/// The batch-dynamic *semantics* follow "GPU-Accelerated Batch-Dynamic
/// Subgraph Matching": the observable effect of a batch is its net change
/// against the pre-batch graph, and the embedding deltas streamed to
/// standing queries are exactly the embeddings destroyed by the net
/// removals plus the ones created by the net insertions.
struct UpdateBatch {
  /// Labels (original label space) of vertices to add; ids are assigned
  /// densely after the current NumVertices, in order.
  std::vector<Label> add_vertices;
  std::vector<EdgeUpdate> insert_edges;
  std::vector<EdgeUpdate> remove_edges;
  std::vector<VertexId> remove_vertices;

  bool Empty() const {
    return add_vertices.empty() && insert_edges.empty() &&
           remove_edges.empty() && remove_vertices.empty();
  }

  // Convenience builders.
  UpdateBatch& AddVertex(Label label) {
    add_vertices.push_back(label);
    return *this;
  }
  UpdateBatch& InsertEdge(VertexId u, VertexId v, Label edge_label = 0) {
    insert_edges.push_back({u, v, edge_label});
    return *this;
  }
  UpdateBatch& RemoveEdge(VertexId u, VertexId v) {
    remove_edges.push_back({u, v, 0});
    return *this;
  }
  UpdateBatch& RemoveVertex(VertexId v) {
    remove_vertices.push_back(v);
    return *this;
  }
};

/// The net effect of an UpdateBatch against the pre-batch graph, computed
/// by DeltaGraph::Normalize: self-loops, duplicate inserts, removals of
/// absent edges, and insert+remove cancellations are resolved, and vertex
/// removals are expanded into removals of their incident edges. An edge
/// whose label changes (remove + reinsert with a different label) appears
/// in *both* lists — it destroys embeddings that required the old label and
/// creates ones that require the new.
///
/// This is the seed list of the delta machinery: incremental CS maintenance
/// marks the endpoints dirty, and delta enumeration pins one query edge to
/// each net-changed data edge.
struct NormalizedBatch {
  std::vector<EdgeUpdate> inserts;        // absent before, present after
  std::vector<EdgeUpdate> removes;        // present before (old label), absent after
  std::vector<VertexId> new_vertices;     // ids assigned to add_vertices
  std::vector<VertexId> removed_vertices; // tombstoned by this batch
  uint64_t ignored_ops = 0;  // self-loops, duplicate/absent-edge ops, ...

  bool Empty() const {
    return inserts.empty() && removes.empty() && new_vertices.empty() &&
           removed_vertices.empty();
  }
};

/// Outcome of DeltaGraph::ApplyBatch (also surfaced, with delta counts
/// added, as service::UpdateOutcome by MatchService::ApplyUpdates).
struct ApplyResult {
  bool ok = true;      // false => `error`; the graph is unchanged
  std::string error;
  uint64_t version = 0;  // graph version after the batch
  uint64_t inserted_edges = 0;
  uint64_t removed_edges = 0;
  uint64_t added_vertices = 0;
  uint64_t removed_vertices = 0;
  uint64_t ignored_ops = 0;
};

/// Packs an undirected edge into one 64-bit key (order-insensitive).
inline uint64_t EdgeKey(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

}  // namespace daf::dyn

#endif  // DAF_DYN_UPDATE_BATCH_H_
