#include "workload/querygen.h"

#include <algorithm>
#include <unordered_map>

#include "graph/properties.h"
#include "graph/query_extract.h"

namespace daf::workload {

std::string QuerySet::Name() const {
  std::string name = "Q";
  name += std::to_string(size);
  name += sparse ? 'S' : 'N';
  return name;
}

QuerySet MakeQuerySet(const Graph& data, uint32_t size, bool sparse,
                      uint32_t count, Rng& rng) {
  QuerySet set;
  set.size = size;
  set.sparse = sparse;
  set.queries.reserve(count);
  constexpr int kRetries = 60;
  while (set.queries.size() < count) {
    Graph best;
    double best_deg = -1;
    bool accepted = false;
    for (int attempt = 0; attempt < kRetries && !accepted; ++attempt) {
      auto extracted = ExtractRandomWalkQuery(
          data, size, sparse ? 2.6 : -1.0, rng);
      if (!extracted) continue;
      double avg_deg = extracted->query.AverageDegree();
      if (sparse ? avg_deg <= 3.0 : avg_deg > 3.0) {
        set.queries.push_back(std::move(extracted->query));
        accepted = true;
      } else if (!sparse && avg_deg > best_deg) {
        best_deg = avg_deg;
        best = std::move(extracted->query);
      }
    }
    if (!accepted) {
      if (best.NumVertices() == 0) break;  // data graph too small
      set.queries.push_back(std::move(best));
    }
  }
  return set;
}

std::optional<Graph> ExtractDenseQuery(const Graph& data, uint32_t size,
                                       Rng& rng) {
  if (size == 0 || data.NumVertices() < size) return std::nullopt;
  // Seed from a random vertex among the higher-degree ones (dense regions
  // cluster around hubs).
  VertexId best_seed = kInvalidVertex;
  for (int i = 0; i < 16; ++i) {
    VertexId v = static_cast<VertexId>(rng.UniformInt(data.NumVertices()));
    if (best_seed == kInvalidVertex ||
        data.degree(v) > data.degree(best_seed)) {
      best_seed = v;
    }
  }
  std::unordered_map<VertexId, uint32_t> inside_degree;  // frontier -> links
  std::vector<VertexId> chosen{best_seed};
  std::unordered_map<VertexId, bool> in_set;
  in_set[best_seed] = true;
  for (VertexId w : data.Neighbors(best_seed)) inside_degree[w] = 1;
  while (chosen.size() < size) {
    // Pick the frontier vertex with the most edges into the chosen set,
    // breaking ties randomly among the best few.
    VertexId best = kInvalidVertex;
    uint32_t best_links = 0;
    uint32_t ties = 0;
    for (const auto& [v, links] : inside_degree) {
      if (links > best_links) {
        best = v;
        best_links = links;
        ties = 1;
      } else if (links == best_links && links > 0) {
        // Reservoir-sample among ties for diversity across extractions.
        ++ties;
        if (rng.UniformInt(ties) == 0) best = v;
      }
    }
    if (best == kInvalidVertex) return std::nullopt;  // component exhausted
    chosen.push_back(best);
    in_set[best] = true;
    inside_degree.erase(best);
    for (VertexId w : data.Neighbors(best)) {
      if (!in_set[w]) ++inside_degree[w];
    }
  }
  std::unordered_map<VertexId, VertexId> index;
  std::vector<Label> labels(size);
  for (uint32_t i = 0; i < size; ++i) {
    index[chosen[i]] = i;
    labels[i] = data.original_label(data.label(chosen[i]));
  }
  std::vector<Edge> edges;
  std::vector<Label> edge_labels;
  for (uint32_t i = 0; i < size; ++i) {
    auto neighbors = data.Neighbors(chosen[i]);
    auto neighbor_edge_labels = data.NeighborEdgeLabels(chosen[i]);
    for (size_t j = 0; j < neighbors.size(); ++j) {
      auto it = index.find(neighbors[j]);
      if (it != index.end() && it->second > i) {
        edges.emplace_back(i, it->second);
        edge_labels.push_back(neighbor_edge_labels[j]);
      }
    }
  }
  return Graph::FromLabeledEdges(std::move(labels), edges, edge_labels);
}

std::optional<Graph> MakeConstrainedQuery(const Graph& data,
                                          const QueryConstraints& constraints,
                                          Rng& rng, int max_attempts) {
  const bool wants_dense = constraints.min_avg_deg > 4.0;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    std::optional<Graph> q;
    if (wants_dense && attempt % 2 == 0) {
      q = ExtractDenseQuery(data, constraints.size, rng);
    } else {
      // Alternate between "all induced edges" and degree-targeted
      // extraction so both dense and sparse windows are reachable.
      double target =
          (attempt % 2 == 0)
              ? -1.0
              : (constraints.min_avg_deg + constraints.max_avg_deg > 1e9
                     ? 3.0
                     : (constraints.min_avg_deg +
                        std::min(constraints.max_avg_deg, 8.0)) /
                           2.0);
      auto extracted =
          ExtractRandomWalkQuery(data, constraints.size, target, rng);
      if (extracted) q = std::move(extracted->query);
    }
    if (!q) continue;
    double avg_deg = q->AverageDegree();
    if (avg_deg < constraints.min_avg_deg ||
        avg_deg > constraints.max_avg_deg) {
      continue;
    }
    uint32_t diam = Diameter(*q);
    if (diam < constraints.min_diameter || diam > constraints.max_diameter) {
      continue;
    }
    return q;
  }
  return std::nullopt;
}

}  // namespace daf::workload
