#ifndef DAF_GRAPH_GRAPH_H_
#define DAF_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace daf {

/// Vertex identifier (dense, 0-based).
using VertexId = uint32_t;

/// Vertex label identifier (dense, 0-based).
using Label = uint32_t;

/// Sentinel for "no vertex".
inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

struct SeedBucket;  // graph/seed_bucket.h
class SeedIndex;    // private to graph.cc

/// An undirected edge as a vertex pair (unordered; both orders accepted).
using Edge = std::pair<VertexId, VertexId>;

/// Immutable undirected vertex-labeled graph in CSR form.
///
/// This is the single graph representation used for both query graphs and
/// data graphs throughout the library (Section 2 of the paper: undirected,
/// connected, vertex-labeled graphs).
///
/// Adjacency lists are sorted by (neighbor label, neighbor id). This makes
/// the two access patterns that dominate subgraph matching O(log deg) /
/// contiguous:
///   * `NeighborsWithLabel(v, l)` — the sub-range of v's neighbors carrying
///     label l (used to materialize the CS edges `N^u_{uc}(v)` and to
///     evaluate neighborhood-label-frequency filters), and
///   * `HasEdge(u, v)` — binary search using the (label, id) key.
///
/// Vertices are additionally indexed by label (`VerticesWithLabel`), and
/// the seeding index (`SeedBucketOf`) packs what the local filters of the
/// initial candidate sets `C_ini(u)` read, one label bucket at a time.
class Graph {
 public:
  Graph() = default;

  /// Builds a graph from an edge list.
  ///
  /// `labels[v]` is the label of vertex v; `num_vertices == labels.size()`.
  /// Self-loops and duplicate edges are dropped. Labels need not be dense;
  /// they are remapped to 0..NumLabels()-1 preserving relative order (the
  /// mapping is exposed via `original_label`). All edges get edge label 0.
  static Graph FromEdges(std::vector<Label> labels,
                         const std::vector<Edge>& edges);

  /// Like FromEdges, but with a label per edge (`edge_labels` aligned with
  /// `edges`) — the "multiple labels on an edge" extension the paper
  /// mentions in Section 2; bond types in chemical compound search are the
  /// canonical use. An embedding must then also preserve edge labels. If
  /// duplicate edges carry conflicting labels, the first occurrence wins.
  /// Edge labels are compared verbatim (no dense remapping).
  static Graph FromLabeledEdges(std::vector<Label> labels,
                                const std::vector<Edge>& edges,
                                const std::vector<Label>& edge_labels);

  /// The raw CSR arrays of a graph, in the *original* (caller) label space.
  /// This is the interchange form of the binary snapshot format
  /// (src/persist/snapshot.h): four flat arrays, no derived indexes.
  struct CsrParts {
    std::vector<Label> labels;        // per-vertex original labels
    std::vector<uint64_t> offsets;    // |V|+1 CSR offsets
    std::vector<VertexId> adjacency;  // 2|E|, per-vertex sorted by
                                      // (dense label, id)
    std::vector<Label> edge_labels;   // 2|E| aligned with adjacency, or
                                      // empty when every edge label is 0
  };

  /// Exports the CSR arrays. `ToCsrParts` followed by `FromCsrParts`
  /// reproduces the graph exactly (original labels round-trip; dense
  /// remapping is order-preserving, so the adjacency order is identical).
  CsrParts ToCsrParts() const;

  /// Rebuilds a graph from CSR arrays without re-sorting: the arrays must
  /// already satisfy every Graph invariant. All invariants are *validated*
  /// (std::nullopt + `*error` on violation, never UB), because the input
  /// typically comes from a file:
  ///   * offsets monotonic, offsets[0] == 0, offsets[|V|] == adjacency size;
  ///   * adjacency even-sized, ids in range, no self-loops;
  ///   * each vertex's neighbors strictly increasing by (dense label, id)
  ///     — strictness also rules out duplicate edges;
  ///   * symmetric: (u, v) present iff (v, u) present, with equal labels.
  /// Cost is O(V + E): much cheaper than FromLabeledEdges' sort and the
  /// reason binary cold-start beats text loading.
  static std::optional<Graph> FromCsrParts(CsrParts parts,
                                           std::string* error);

  /// Number of vertices.
  uint32_t NumVertices() const {
    return static_cast<uint32_t>(labels_.size());
  }

  /// Number of undirected edges.
  uint64_t NumEdges() const { return adjacency_.size() / 2; }

  /// Number of distinct labels.
  uint32_t NumLabels() const {
    return static_cast<uint32_t>(label_frequency_.size());
  }

  /// Average degree 2|E|/|V|.
  double AverageDegree() const {
    return NumVertices() == 0
               ? 0.0
               : 2.0 * static_cast<double>(NumEdges()) / NumVertices();
  }

  /// Label of vertex v (dense, remapped).
  Label label(VertexId v) const { return labels_[v]; }

  /// The label value that was supplied to FromEdges for dense label l.
  Label original_label(Label l) const { return original_labels_[l]; }

  /// Inverse of original_label: the dense id for a supplied label, or
  /// static_cast<Label>(-1) (query_extract's kNoSuchLabel) when no vertex
  /// carries it. O(log NumLabels()).
  Label DenseLabel(Label original) const;

  /// Degree of vertex v.
  uint32_t degree(VertexId v) const {
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Largest degree among v's neighbors (0 for isolated vertices).
  uint32_t MaxNeighborDegree(VertexId v) const {
    return max_neighbor_degree_[v];
  }

  /// All neighbors of v, sorted by (label, id).
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// The neighbors of v that carry label l (contiguous sub-range).
  std::span<const VertexId> NeighborsWithLabel(VertexId v, Label l) const;

  /// Number of neighbors of v with label l (the NLF value).
  uint32_t NeighborLabelCount(VertexId v, Label l) const {
    return static_cast<uint32_t>(NeighborsWithLabel(v, l).size());
  }

  /// Number of distinct labels among v's neighbors.
  uint32_t NeighborLabelVariety(VertexId v) const;

  /// True iff the undirected edge (u, v) exists.
  bool HasEdge(VertexId u, VertexId v) const;

  /// True iff the edge (u, v) exists and carries edge label `edge_label`.
  bool HasEdgeWithLabel(VertexId u, VertexId v, Label edge_label) const;

  /// The label of edge (u, v); the edge must exist.
  Label EdgeLabelBetween(VertexId u, VertexId v) const;

  /// Edge labels aligned with Neighbors(v): element i is the label of the
  /// edge (v, Neighbors(v)[i]).
  std::span<const Label> NeighborEdgeLabels(VertexId v) const {
    return {edge_labels_.data() + offsets_[v],
            offsets_[v + 1] - offsets_[v]};
  }

  /// True iff some edge carries a non-zero label. When false (every
  /// FromEdges graph), edge-label checks can be skipped entirely.
  bool HasNontrivialEdgeLabels() const { return nontrivial_edge_labels_; }

  /// Neighbors of v with vertex label l, together with the labels of the
  /// connecting edges (both spans aligned).
  struct NeighborSlice {
    std::span<const VertexId> vertices;
    std::span<const Label> edge_labels;
  };
  NeighborSlice NeighborsWithLabelAndEdges(VertexId v, Label l) const;

  /// All vertices carrying label l, ascending by id.
  std::span<const VertexId> VerticesWithLabel(Label l) const {
    return {vertices_by_label_.data() + label_offsets_[l],
            label_offsets_[l + 1] - label_offsets_[l]};
  }

  /// Number of vertices carrying label l.
  uint32_t LabelFrequency(Label l) const { return label_frequency_[l]; }

  /// The seeding bucket of label l (l < NumLabels()): l's vertices with
  /// their degree, MND and neighbor-label runs (graph/seed_bucket.h). Built
  /// on the first request for l, at most once per graph even under
  /// concurrent requests, and shared by every copy of this graph. When
  /// `build_ms` is set, the time this call spent building is added to it
  /// (nothing once the bucket is built).
  const SeedBucket& SeedBucketOf(Label l, double* build_ms = nullptr) const;

  /// All edges as (u, v) pairs with u < v, in unspecified order.
  std::vector<Edge> EdgeList() const;

  /// All edges with their labels: ((u, v), label) with u < v.
  std::vector<std::pair<Edge, Label>> LabeledEdgeList() const;

 private:
  int64_t FindNeighborIndex(VertexId u, VertexId v) const;

  /// Fills nontrivial_edge_labels_, max_neighbor_degree_, and the label
  /// index from labels_/offsets_/adjacency_/edge_labels_, and gives the
  /// graph a fresh (empty) seeding index.
  void BuildDerivedIndexes();

  std::vector<Label> labels_;
  std::vector<Label> original_labels_;  // dense label -> supplied label
  std::vector<uint64_t> offsets_;       // |V|+1 CSR offsets
  std::vector<VertexId> adjacency_;     // 2|E| neighbor entries
  std::vector<Label> edge_labels_;      // aligned with adjacency_
  bool nontrivial_edge_labels_ = false;
  std::vector<uint32_t> max_neighbor_degree_;
  std::vector<uint64_t> label_offsets_;  // |Σ|+1
  std::vector<VertexId> vertices_by_label_;
  std::vector<uint32_t> label_frequency_;
  std::shared_ptr<SeedIndex> seed_index_;
};

}  // namespace daf

#endif  // DAF_GRAPH_GRAPH_H_
