#ifndef DAF_DAF_QUERY_DAG_H_
#define DAF_DAF_QUERY_DAG_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/bitset.h"

namespace daf {

/// The rooted query DAG q_D built from a query graph q with respect to a
/// data graph G (procedure BuildDAG, Section 3 of the paper).
///
/// Construction: the root is argmin_u |C_ini(u)| / deg_q(u); a BFS from the
/// root directs all edges from upper levels to lower levels; within a level,
/// vertices are grouped by label (groups ordered by ascending label
/// frequency in G, so infrequent labels come first), each group sorted by
/// descending degree, and same-level edges are directed by that order.
///
/// Extension beyond the paper: disconnected query graphs are supported by
/// building one rooted DAG per connected component (each component's root
/// chosen by the same rule); `Roots()` lists them and `root()` returns the
/// globally best one. Everything downstream (CS construction, the DAG
/// ordering, failing sets) works unchanged on the resulting multi-rooted
/// DAG, because none of it relies on there being a single source vertex.
///
/// Besides the DAG itself this object carries everything the rest of the
/// pipeline derives from it: a topological order, per-vertex ancestor
/// bitsets anc(u) (precomputed, as Section 6.1 prescribes, so failing-set
/// construction costs no graph traversals), dense edge ids for the CS edge
/// arrays, and each query vertex's label translated into the data graph's
/// label space.
class QueryDag {
 public:
  /// Builds q_D choosing the root by the paper's rule. |C_ini(u)| is read
  /// from the data graph's seeding index (Graph::SeedBucketOf), which this
  /// builds for the query's labels. When `index_build_ms` is set, the time
  /// spent building index buckets is added to it.
  static QueryDag Build(const Graph& query, const Graph& data,
                        double* index_build_ms = nullptr);

  /// Builds q_D with an explicit root (used by tests to pin down examples).
  static QueryDag BuildWithRoot(const Graph& query, const Graph& data,
                                VertexId root);

  /// Number of query vertices.
  uint32_t NumVertices() const {
    return static_cast<uint32_t>(children_.size());
  }

  /// Number of directed DAG edges (== |E(q)|).
  uint32_t NumEdges() const { return num_edges_; }

  /// The root vertex r (of the first component).
  VertexId root() const { return root_; }

  /// One root per connected component of q; Roots()[0] == root().
  const std::vector<VertexId>& Roots() const { return roots_; }

  /// Children of u (direct successors in q_D).
  const std::vector<VertexId>& Children(VertexId u) const {
    return children_[u];
  }

  /// Parents of u (direct predecessors in q_D).
  const std::vector<VertexId>& Parents(VertexId u) const {
    return parents_[u];
  }

  /// Dense id of the DAG edge (u -> Children(u)[child_pos]).
  uint32_t ChildEdgeId(VertexId u, uint32_t child_pos) const {
    return child_edge_base_[u] + child_pos;
  }

  /// Dense ids of the edges (p -> u), aligned with Parents(u).
  const std::vector<uint32_t>& ParentEdgeIds(VertexId u) const {
    return parent_edge_ids_[u];
  }

  /// The query edge label carried by DAG edge `edge_id` (0 when the query
  /// has no edge labels).
  Label EdgeLabelOf(uint32_t edge_id) const { return edge_label_of_[edge_id]; }

  /// True iff the query carries non-zero edge labels (matching must then
  /// also preserve them).
  bool HasEdgeLabels() const { return has_edge_labels_; }

  /// Vertices in a topological order of q_D (parents before children).
  const std::vector<VertexId>& TopologicalOrder() const { return topo_; }

  /// anc(u): ancestors of u in q_D including u itself, as a bitset over
  /// V(q). Used to build conflict-class and emptyset-class failing sets.
  const Bitset& Ancestors(VertexId u) const { return ancestors_[u]; }

  /// u's label translated into the data graph's dense label space
  /// (kNoSuchLabel if the label does not occur in the data graph).
  Label DataLabel(VertexId u) const { return data_labels_[u]; }

  /// |C_ini(u)|: data vertices with u's label and degree >= deg_q(u).
  uint32_t InitialCandidateCount(VertexId u) const {
    return initial_candidate_counts_[u];
  }

  /// BFS level of u in the construction (root = 0).
  uint32_t Level(VertexId u) const { return level_[u]; }

 private:
  // The construction after |C_ini| is known; `root == kInvalidVertex`
  // chooses it by the paper's rule.
  static QueryDag BuildFrom(const Graph& query, const Graph& data,
                            VertexId root, std::vector<Label> data_labels,
                            std::vector<uint32_t> initial_candidate_counts);

  VertexId root_ = kInvalidVertex;
  std::vector<VertexId> roots_;
  uint32_t num_edges_ = 0;
  std::vector<std::vector<VertexId>> children_;
  std::vector<std::vector<VertexId>> parents_;
  std::vector<uint32_t> child_edge_base_;
  std::vector<std::vector<uint32_t>> parent_edge_ids_;
  std::vector<Label> edge_label_of_;
  bool has_edge_labels_ = false;
  std::vector<VertexId> topo_;
  std::vector<Bitset> ancestors_;
  std::vector<Label> data_labels_;
  std::vector<uint32_t> initial_candidate_counts_;
  std::vector<uint32_t> level_;
};

}  // namespace daf

#endif  // DAF_DAF_QUERY_DAG_H_
