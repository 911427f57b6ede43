#include "daf/dynamic_cs.h"

#include <algorithm>
#include <cassert>

#include "daf/candidate_space.h"
#include "daf/query_dag.h"

namespace daf::dyn {

DynamicCandidateSpace::DynamicCandidateSpace(const Graph& query,
                                             const Graph& g, Options options)
    : query_(query), options_(options) {
  const uint32_t n = query_.NumVertices();
  required_label_.resize(n);
  nlf_.resize(n);
  adj_.resize(n);
  for (VertexId u = 0; u < n; ++u) {
    required_label_[u] = query_.original_label(query_.label(u));
    auto elabels = query_.NeighborEdgeLabels(u);
    auto neighbors = query_.Neighbors(u);
    std::vector<std::pair<Label, uint32_t>> profile;
    for (size_t i = 0; i < neighbors.size(); ++i) {
      adj_[u].push_back({neighbors[i], elabels[i]});
      profile.push_back(
          {query_.original_label(query_.label(neighbors[i])), 1});
    }
    std::sort(profile.begin(), profile.end());
    // Collapse duplicate labels into counts.
    std::vector<std::pair<Label, uint32_t>>& out = nlf_[u];
    for (const auto& [l, c] : profile) {
      if (!out.empty() && out.back().first == l) {
        out.back().second += c;
      } else {
        out.push_back({l, c});
      }
    }
  }
  cand_.resize(n);
  Rebuild(g);
}

void DynamicCandidateSpace::Rebuild(const Graph& g) {
  QueryDag dag = QueryDag::Build(query_, g);
  CandidateSpace::Options cs_options;
  cs_options.refinement_steps = options_.refinement_steps;
  cs_options.use_nlf_filter = options_.use_nlf_filter;
  cs_options.use_mnd_filter = options_.use_mnd_filter;
  cs_options.injective = options_.injective;
  CandidateSpace cs = CandidateSpace::Build(query_, dag, g, cs_options);
  total_candidates_ = 0;
  for (VertexId u = 0; u < query_.NumVertices(); ++u) {
    cand_[u].Resize(g.NumVertices());
    for (VertexId v : cs.Candidates(u)) {
      cand_[u].Set(v);
    }
    total_candidates_ += cs.NumCandidates(u);
  }
}

bool DynamicCandidateSpace::EmptySomewhere() const {
  for (const Bitset& b : cand_) {
    if (b.None()) return true;
  }
  return false;
}

// A tombstone's label matches no query label, so the label test also
// rejects removed vertices. An original label absent from `g` has dense id
// kNoSuchLabel, whose neighbor slices are empty.
bool DynamicCandidateSpace::LocalCheck(const Graph& g, VertexId u,
                                       VertexId v) const {
  if (g.original_label(g.label(v)) != required_label_[u]) return false;
  if (options_.injective && g.degree(v) < query_.degree(u)) return false;
  if (options_.use_nlf_filter) {
    for (const auto& [l, c] : nlf_[u]) {
      const uint32_t need = options_.injective ? c : 1;
      if (g.NeighborLabelCount(v, g.DenseLabel(l)) < need) return false;
    }
  }
  return true;
}

bool DynamicCandidateSpace::FullCheck(const Graph& g, VertexId u,
                                      VertexId v) const {
  if (!LocalCheck(g, u, v)) return false;
  // Arc consistency over *all* query neighbors (stronger than the paper's
  // directional recurrence per pass, still a necessary condition): every
  // neighbor w of u needs some candidate of w adjacent to v through an
  // edge carrying w's required edge label.
  for (const auto& [w, elabel] : adj_[u]) {
    const Graph::NeighborSlice slice =
        g.NeighborsWithLabelAndEdges(v, g.DenseLabel(required_label_[w]));
    bool supported = false;
    for (size_t i = 0; i < slice.vertices.size() && !supported; ++i) {
      supported = slice.edge_labels[i] == elabel &&
                  cand_[w].Test(slice.vertices[i]);
    }
    if (!supported) return false;
  }
  return true;
}

DynamicCandidateSpace::MaintainStats DynamicCandidateSpace::Apply(
    const Graph& g, const NormalizedBatch& net) {
  MaintainStats stats;
  const uint32_t n = query_.NumVertices();
  for (VertexId u = 0; u < n; ++u) {
    cand_[u].GrowTo(g.NumVertices());
  }
  const uint64_t budget =
      std::max<uint64_t>(options_.rebuild_min_dirty_pairs,
                         static_cast<uint64_t>(
                             options_.rebuild_dirty_fraction *
                             static_cast<double>(total_candidates_ + 1)));

  using Pair = std::pair<VertexId, VertexId>;  // (query vertex, data vertex)
  std::vector<Pair> flooded;
  std::vector<Pair> stack;

  // --- Phase 1: addition flood. Seeds are the data vertices whose local
  // filter state or incident adjacency improved: inserted-edge endpoints
  // and newly added vertices. No support check — over-additions are pruned
  // by phase 2.
  auto try_add = [&](VertexId u, VertexId v) {
    if (cand_[u].Test(v)) return;
    if (!LocalCheck(g, u, v)) return;
    cand_[u].Set(v);
    ++total_candidates_;
    flooded.push_back({u, v});
    stack.push_back({u, v});
    ++stats.dirty_pairs;
    ++stats.added_pairs;
  };
  auto seed_vertex = [&](VertexId v) {
    for (VertexId u = 0; u < n; ++u) try_add(u, v);
  };
  for (const EdgeUpdate& e : net.inserts) {
    seed_vertex(e.u);
    seed_vertex(e.v);
  }
  for (VertexId v : net.new_vertices) seed_vertex(v);
  while (!stack.empty()) {
    if (stats.dirty_pairs > budget) {
      const uint64_t before = total_candidates_;
      Rebuild(g);
      stats.rebuilt = true;
      stats.added_pairs = 0;
      stats.removed_pairs =
          before > total_candidates_ ? before - total_candidates_ : 0;
      return stats;
    }
    auto [u, v] = stack.back();
    stack.pop_back();
    for (const auto& [w, elabel] : adj_[u]) {
      const Graph::NeighborSlice slice =
          g.NeighborsWithLabelAndEdges(v, g.DenseLabel(required_label_[w]));
      for (size_t i = 0; i < slice.vertices.size(); ++i) {
        if (slice.edge_labels[i] == elabel) try_add(w, slice.vertices[i]);
      }
    }
  }

  // --- Phase 2: removal refinement to fixpoint. Seeds: pairs at removed
  // vertices (cleared directly), pairs at removed-edge endpoints (their
  // degree/NLF/support may have degraded), and every flooded pair (the
  // flood did not check support).
  std::vector<Pair> worklist = std::move(flooded);
  auto seed_check = [&](VertexId v) {
    if (v >= g.NumVertices()) return;
    for (VertexId u = 0; u < n; ++u) {
      if (cand_[u].Test(v)) worklist.push_back({u, v});
    }
  };
  auto cascade_from = [&](VertexId v) {
    // A removal at data vertex v can only break support of pairs whose
    // data vertex is adjacent to v (plus local filters at v itself, which
    // seed_check covers for edge removals).
    for (VertexId vn : g.Neighbors(v)) {
      for (VertexId u = 0; u < n; ++u) {
        if (cand_[u].Test(vn)) worklist.push_back({u, vn});
      }
    }
  };
  for (VertexId v : net.removed_vertices) {
    for (VertexId u = 0; u < n; ++u) {
      if (cand_[u].Test(v)) {
        cand_[u].Clear(v);
        --total_candidates_;
        ++stats.removed_pairs;
      }
    }
    // Its edges are gone too; the removed-edge seeds below cascade to the
    // former neighbors (vertex removals were expanded into edge removals
    // by Normalize).
  }
  for (const EdgeUpdate& e : net.removes) {
    seed_check(e.u);
    seed_check(e.v);
    // Support of a pair at u may have gone through the removed edge; the
    // seeds above re-check both endpoints. Pairs adjacent to the endpoints
    // are only affected if an endpoint pair is removed, which cascades.
  }
  while (!worklist.empty()) {
    auto [u, v] = worklist.back();
    worklist.pop_back();
    if (!cand_[u].Test(v)) continue;
    ++stats.dirty_pairs;
    if (stats.dirty_pairs > budget) {
      const uint64_t before_added = stats.added_pairs;
      Rebuild(g);
      stats.rebuilt = true;
      stats.added_pairs = before_added;  // flood already counted; keep
      return stats;
    }
    if (FullCheck(g, u, v)) continue;
    cand_[u].Clear(v);
    --total_candidates_;
    ++stats.removed_pairs;
    cascade_from(v);
  }
  return stats;
}

}  // namespace daf::dyn
