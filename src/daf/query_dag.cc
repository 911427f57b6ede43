#include "daf/query_dag.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "graph/query_extract.h"
#include "graph/seed_bucket.h"

namespace daf {

namespace {

// |C_ini(u)| for every query vertex: data vertices with the same label and
// degree >= deg_q(u).
std::vector<uint32_t> InitialCandidateCounts(const Graph& query,
                                             const Graph& data,
                                             const std::vector<Label>& dl,
                                             double* index_build_ms) {
  std::vector<uint32_t> counts(query.NumVertices(), 0);
  for (uint32_t u = 0; u < query.NumVertices(); ++u) {
    if (dl[u] == kNoSuchLabel) continue;
    counts[u] = data.SeedBucketOf(dl[u], index_build_ms)
                    .CountWithDegreeAtLeast(query.degree(u));
  }
  return counts;
}

}  // namespace

QueryDag QueryDag::Build(const Graph& query, const Graph& data,
                         double* index_build_ms) {
  std::vector<Label> dl = MapQueryLabels(query, data);
  std::vector<uint32_t> counts =
      InitialCandidateCounts(query, data, dl, index_build_ms);
  return BuildFrom(query, data, kInvalidVertex, std::move(dl),
                   std::move(counts));
}

QueryDag QueryDag::BuildWithRoot(const Graph& query, const Graph& data,
                                 VertexId root) {
  std::vector<Label> dl = MapQueryLabels(query, data);
  std::vector<uint32_t> counts =
      InitialCandidateCounts(query, data, dl, nullptr);
  return BuildFrom(query, data, root, std::move(dl), std::move(counts));
}

QueryDag QueryDag::BuildFrom(const Graph& query, const Graph& data,
                             VertexId root, std::vector<Label> data_labels,
                             std::vector<uint32_t> initial_candidate_counts) {
  QueryDag dag;
  const uint32_t n = query.NumVertices();
  dag.data_labels_ = std::move(data_labels);
  dag.initial_candidate_counts_ = std::move(initial_candidate_counts);
  dag.level_.assign(n, static_cast<uint32_t>(-1));
  // root = argmin |C_ini(u)| / deg(u) among the vertices no BFS reached
  // yet. Isolated vertices (degree 0) only appear in single-vertex
  // components, whose one vertex is then the root.
  auto best_unvisited_root = [&]() {
    VertexId best_root = kInvalidVertex;
    double best = std::numeric_limits<double>::infinity();
    for (uint32_t u = 0; u < n; ++u) {
      if (dag.level_[u] != static_cast<uint32_t>(-1)) continue;
      const double count = dag.initial_candidate_counts_[u];
      const double ratio =
          query.degree(u) == 0 ? count : count / query.degree(u);
      if (ratio < best) {
        best = ratio;
        best_root = u;
      }
    }
    return best_root;
  };
  if (root == kInvalidVertex) root = best_unvisited_root();
  dag.root_ = root;

  // BFS levels from the root; disconnected queries get one BFS (and one
  // root) per component, appended in sequence.
  std::vector<std::vector<VertexId>> levels;
  {
    VertexId component_root = root;
    while (component_root != kInvalidVertex) {
      dag.roots_.push_back(component_root);
      const size_t level_base = levels.size();
      std::queue<VertexId> queue;
      dag.level_[component_root] = 0;
      queue.push(component_root);
      levels.push_back({component_root});
      while (!queue.empty()) {
        VertexId v = queue.front();
        queue.pop();
        for (VertexId u : query.Neighbors(v)) {
          if (dag.level_[u] == static_cast<uint32_t>(-1)) {
            dag.level_[u] = dag.level_[v] + 1;
            if (levels.size() <= level_base + dag.level_[u]) {
              levels.resize(level_base + dag.level_[u] + 1);
            }
            levels[level_base + dag.level_[u]].push_back(u);
            queue.push(u);
          }
        }
      }
      // Next component's root: best |C_ini|/deg ratio among the unvisited.
      component_root = best_unvisited_root();
    }
  }

  // Total order: by level, then within a level grouped by label with the
  // most infrequent (in the data graph) labels first, descending degree
  // inside a group, vertex id as the final tiebreak.
  auto label_frequency = [&](VertexId u) -> uint64_t {
    Label l = dag.data_labels_[u];
    return l == kNoSuchLabel ? 0 : data.LabelFrequency(l);
  };
  std::vector<uint32_t> rank(n, 0);
  uint32_t next_rank = 0;
  for (auto& level_vertices : levels) {
    std::sort(level_vertices.begin(), level_vertices.end(),
              [&](VertexId a, VertexId b) {
                uint64_t fa = label_frequency(a);
                uint64_t fb = label_frequency(b);
                if (fa != fb) return fa < fb;
                Label la = query.label(a);
                Label lb = query.label(b);
                if (la != lb) return la < lb;
                if (query.degree(a) != query.degree(b)) {
                  return query.degree(a) > query.degree(b);
                }
                return a < b;
              });
    for (VertexId u : level_vertices) rank[u] = next_rank++;
  }

  // Direct every query edge from the lower-ranked endpoint to the higher.
  dag.children_.assign(n, {});
  dag.parents_.assign(n, {});
  for (uint32_t u = 0; u < n; ++u) {
    for (VertexId v : query.Neighbors(u)) {
      if (rank[u] < rank[v]) {
        dag.children_[u].push_back(v);
        dag.parents_[v].push_back(u);
      }
    }
  }
  // Deterministic child/parent orders (rank order = topological order).
  for (uint32_t u = 0; u < n; ++u) {
    auto by_rank = [&](VertexId a, VertexId b) { return rank[a] < rank[b]; };
    std::sort(dag.children_[u].begin(), dag.children_[u].end(), by_rank);
    std::sort(dag.parents_[u].begin(), dag.parents_[u].end(), by_rank);
  }

  // Dense edge ids: edge (u -> c) gets id child_edge_base_[u] + pos.
  dag.child_edge_base_.assign(n, 0);
  uint32_t next_edge = 0;
  for (uint32_t u = 0; u < n; ++u) {
    dag.child_edge_base_[u] = next_edge;
    next_edge += static_cast<uint32_t>(dag.children_[u].size());
  }
  dag.num_edges_ = next_edge;
  // Edge labels per dense DAG edge id (all zero for unlabeled queries).
  dag.has_edge_labels_ = query.HasNontrivialEdgeLabels();
  dag.edge_label_of_.assign(dag.num_edges_, 0);
  if (dag.has_edge_labels_) {
    for (uint32_t u = 0; u < n; ++u) {
      for (uint32_t pos = 0; pos < dag.children_[u].size(); ++pos) {
        dag.edge_label_of_[dag.ChildEdgeId(u, pos)] =
            query.EdgeLabelBetween(u, dag.children_[u][pos]);
      }
    }
  }

  // parent_edge_ids_[v] must be aligned with parents_[v].
  dag.parent_edge_ids_.assign(n, {});
  for (uint32_t v = 0; v < n; ++v) {
    for (VertexId p : dag.parents_[v]) {
      const auto& siblings = dag.children_[p];
      uint32_t pos = static_cast<uint32_t>(
          std::find(siblings.begin(), siblings.end(), v) - siblings.begin());
      dag.parent_edge_ids_[v].push_back(dag.ChildEdgeId(p, pos));
    }
  }

  // Topological order = vertices sorted by rank.
  dag.topo_.resize(n);
  for (uint32_t u = 0; u < n; ++u) dag.topo_[rank[u]] = u;

  // Ancestor bitsets in topological order: anc(u) = {u} ∪ ⋃_p anc(p).
  dag.ancestors_.assign(n, Bitset(n));
  for (VertexId u : dag.topo_) {
    dag.ancestors_[u].Set(u);
    for (VertexId p : dag.parents_[u]) {
      dag.ancestors_[u].UnionWith(dag.ancestors_[p]);
    }
  }
  return dag;
}

}  // namespace daf
