#include "dyn/delta_enumerate.h"

#include <algorithm>
#include <cassert>
#include <deque>

namespace daf::dyn {
namespace {

constexpr uint64_t kStopPollPeriod = 1024;

}  // namespace

DeltaEnumerator::DeltaEnumerator(const Graph& query,
                                 const DynamicCandidateSpace& cs)
    : query_(query), cs_(cs), query_edges_(query.LabeledEdgeList()) {
  // Deterministic seed order: ascending canonical edges.
  std::sort(query_edges_.begin(), query_edges_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const uint32_t n = query_.NumVertices();
  seed_orders_.resize(query_edges_.size());
  for (size_t qe = 0; qe < query_edges_.size(); ++qe) {
    SeedOrder& so = seed_orders_[qe];
    so.order.reserve(n);
    so.pos.assign(n, static_cast<uint32_t>(-1));
    auto push = [&](VertexId u) {
      so.pos[u] = static_cast<uint32_t>(so.order.size());
      so.order.push_back(u);
    };
    // BFS from the pinned edge so every later vertex has a mapped
    // neighbor to extend from.
    std::deque<VertexId> frontier;
    push(query_edges_[qe].first.first);
    push(query_edges_[qe].first.second);
    frontier.push_back(so.order[0]);
    frontier.push_back(so.order[1]);
    while (!frontier.empty()) {
      VertexId u = frontier.front();
      frontier.pop_front();
      for (VertexId w : query_.Neighbors(u)) {
        if (so.pos[w] == static_cast<uint32_t>(-1)) {
          push(w);
          frontier.push_back(w);
        }
      }
    }
    // Queries are connected, so the order covers every vertex.
    assert(so.order.size() == n);
  }
}

DeltaEnumResult DeltaEnumerator::Created(
    const Graph& g, const NormalizedBatch& net,
    const DeltaEnumOptions& options) const {
  return Enumerate(g, net.inserts, net.new_vertices, options);
}

DeltaEnumResult DeltaEnumerator::Destroyed(
    const Graph& g, const NormalizedBatch& net,
    const DeltaEnumOptions& options) const {
  return Enumerate(g, net.removes, net.removed_vertices, options);
}

DeltaEnumResult DeltaEnumerator::Enumerate(
    const Graph& g, const std::vector<EdgeUpdate>& changed,
    const std::vector<VertexId>& changed_vertices,
    const DeltaEnumOptions& options) const {
  DeltaEnumResult result;
  const uint32_t n = query_.NumVertices();
  const bool injective = cs_.options().injective;
  const bool stop_armed = options.stop != nullptr && options.stop->armed();

  if (n == 1) {
    // No edges to seed on: vertex changes are the delta directly.
    for (VertexId v : changed_vertices) {
      if (v < cs_.Candidates(0).size() && cs_.Has(0, v)) {
        result.embeddings.push_back({v});
        if (options.limit != 0 && result.embeddings.size() >= options.limit) {
          result.complete = false;
          return result;
        }
      }
    }
    return result;
  }
  if (changed.empty()) return result;

  // Changed-edge index for the duplicate-suppression rule.
  std::unordered_map<uint64_t, uint32_t> changed_index;
  changed_index.reserve(changed.size() * 2);
  for (uint32_t i = 0; i < changed.size(); ++i) {
    changed_index.emplace(EdgeKey(changed[i].u, changed[i].v), i);
  }

  std::vector<VertexId> embedding(n, kInvalidVertex);
  uint64_t budget_counter = 0;
  bool stopped = false;

  auto poll_stop = [&]() {
    if (!stop_armed) return false;
    if (++budget_counter % kStopPollPeriod != 0) return false;
    if (options.stop->Check() != StopCause::kNone) stopped = true;
    return stopped;
  };

  // Accept M iff this seed is its canonical discoverer: the seed edge is
  // the minimum changed-edge index M uses, and the pinned query edge is
  // the first (ascending canonical order) query edge mapping onto it.
  // (For a fixed M a query edge maps onto the seed data edge in exactly
  // one orientation, so orientations never double-count.)
  auto accept = [&](uint32_t seed_i, size_t seed_qe) {
    const uint64_t seed_key = EdgeKey(changed[seed_i].u, changed[seed_i].v);
    uint32_t min_idx = static_cast<uint32_t>(-1);
    size_t first_qe_on_seed = static_cast<size_t>(-1);
    for (size_t qe = 0; qe < query_edges_.size(); ++qe) {
      const Edge& e = query_edges_[qe].first;
      const uint64_t key = EdgeKey(embedding[e.first], embedding[e.second]);
      auto it = changed_index.find(key);
      if (it == changed_index.end()) continue;
      min_idx = std::min(min_idx, it->second);
      if (key == seed_key && first_qe_on_seed == static_cast<size_t>(-1)) {
        first_qe_on_seed = qe;
      }
    }
    return min_idx == seed_i && first_qe_on_seed == seed_qe;
  };

  // DFS over the remaining query vertices in the seed's BFS order.
  auto extend = [&](auto&& self, const SeedOrder& so, uint32_t depth,
                    uint32_t seed_i, size_t seed_qe) -> bool {
    ++result.recursive_calls;
    if (poll_stop()) return false;
    if (depth == n) {
      if (accept(seed_i, seed_qe)) {
        result.embeddings.push_back(embedding);
        if (options.limit != 0 && result.embeddings.size() >= options.limit) {
          result.complete = false;
          return false;
        }
      }
      return true;
    }
    const VertexId u = so.order[depth];
    // Pivot: the first already-mapped query neighbor; its image's
    // neighbors with u's label generate the candidates.
    VertexId pivot = kInvalidVertex;
    Label pivot_elabel = 0;
    auto u_neighbors = query_.Neighbors(u);
    auto u_elabels = query_.NeighborEdgeLabels(u);
    for (size_t i = 0; i < u_neighbors.size(); ++i) {
      if (so.pos[u_neighbors[i]] < depth) {
        pivot = u_neighbors[i];
        pivot_elabel = u_elabels[i];
        break;
      }
    }
    assert(pivot != kInvalidVertex);  // BFS order guarantees one
    const Bitset& cand = cs_.Candidates(u);
    const Graph::NeighborSlice slice = g.NeighborsWithLabelAndEdges(
        embedding[pivot], g.DenseLabel(query_.original_label(query_.label(u))));
    for (size_t k = 0; k < slice.vertices.size(); ++k) {
      const VertexId v = slice.vertices[k];
      if (slice.edge_labels[k] != pivot_elabel) continue;
      if (v >= cand.size() || !cand.Test(v)) continue;
      if (injective &&
          std::find(embedding.begin(), embedding.end(), v) != embedding.end()) {
        continue;
      }
      // Every other mapped neighbor must also be adjacent with the right
      // edge label.
      bool fits = true;
      for (size_t i = 0; i < u_neighbors.size() && fits; ++i) {
        const VertexId w = u_neighbors[i];
        fits = w == pivot || so.pos[w] >= depth ||
               g.HasEdgeWithLabel(embedding[w], v, u_elabels[i]);
      }
      if (!fits) continue;
      embedding[u] = v;
      const bool keep_going = self(self, so, depth + 1, seed_i, seed_qe);
      embedding[u] = kInvalidVertex;
      if (!keep_going) return false;
    }
    return true;
  };

  for (uint32_t i = 0; i < changed.size() && !stopped; ++i) {
    const EdgeUpdate& e = changed[i];
    for (size_t qe = 0; qe < query_edges_.size() && !stopped; ++qe) {
      if (query_edges_[qe].second != e.edge_label) continue;
      const VertexId x = query_edges_[qe].first.first;
      const VertexId y = query_edges_[qe].first.second;
      const SeedOrder& so = seed_orders_[qe];
      for (int o = 0; o < 2; ++o) {
        const VertexId a = o == 0 ? e.u : e.v;
        const VertexId b = o == 0 ? e.v : e.u;
        if (a >= cs_.Candidates(x).size() || !cs_.Has(x, a)) continue;
        if (b >= cs_.Candidates(y).size() || !cs_.Has(y, b)) continue;
        embedding[x] = a;
        embedding[y] = b;
        const bool keep = extend(extend, so, 2, i, qe);
        embedding[x] = kInvalidVertex;
        embedding[y] = kInvalidVertex;
        if (!keep && !stopped) {
          // Limit hit.
          result.complete = false;
          return result;
        }
        if (stopped) break;
      }
    }
  }
  if (stopped) result.complete = false;
  return result;
}

}  // namespace daf::dyn
