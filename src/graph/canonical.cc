#include "graph/canonical.h"

#include <algorithm>
#include <map>
#include <utility>

namespace daf {

namespace {

// Partition convention (nauty-style): colors[v] is the canonical start
// position of v's cell, so colors are comparable across refinement rounds,
// a discrete partition has all-distinct colors, and colors[v] is directly
// the canonical position of v once discrete.
using Coloring = std::vector<uint32_t>;

// Splits every cell by the sorted multiset of (neighbor color, edge label)
// pairs, iterating to a fixed point. Signatures are compared as flat word
// vectors with the old color leading, so refinement only ever splits cells
// and preserves their relative order — both required for the resulting
// colors to be relabeling-invariant.
void Refine(const Graph& g, Coloring* colors) {
  const uint32_t n = g.NumVertices();
  std::vector<std::vector<uint64_t>> signature(n);
  for (;;) {
    std::map<std::vector<uint64_t>, std::vector<VertexId>> groups;
    for (VertexId v = 0; v < n; ++v) {
      std::vector<uint64_t>& sig = signature[v];
      sig.clear();
      sig.push_back((*colors)[v]);
      const auto neighbors = g.Neighbors(v);
      const auto edge_labels = g.NeighborEdgeLabels(v);
      std::vector<uint64_t> entries;
      entries.reserve(neighbors.size());
      for (size_t i = 0; i < neighbors.size(); ++i) {
        entries.push_back((static_cast<uint64_t>((*colors)[neighbors[i]]) << 32) |
                          edge_labels[i]);
      }
      std::sort(entries.begin(), entries.end());
      sig.insert(sig.end(), entries.begin(), entries.end());
    }
    for (VertexId v = 0; v < n; ++v) groups[signature[v]].push_back(v);
    Coloring next(n);
    uint32_t start = 0;
    bool changed = false;
    for (const auto& [sig, members] : groups) {
      for (VertexId v : members) {
        next[v] = start;
        if (next[v] != (*colors)[v]) changed = true;
      }
      start += static_cast<uint32_t>(members.size());
    }
    *colors = std::move(next);
    if (!changed) return;
  }
}

bool IsDiscrete(const Coloring& colors) {
  std::vector<bool> seen(colors.size(), false);
  for (uint32_t c : colors) {
    if (seen[c]) return false;
    seen[c] = true;
  }
  return true;
}

// True when swapping a and b (same vertex label) is an automorphism fixing
// every other vertex: identical neighborhoods outside {a, b} with matching
// edge labels. Clique members, star leaves, and parallel leaves are twins;
// pruning a twin branch is sound because its subtree enumerates exactly the
// encodings of the branch already taken.
bool AreTwins(const Graph& g, VertexId a, VertexId b) {
  auto row = [&](VertexId v, VertexId excluded) {
    std::vector<std::pair<VertexId, Label>> r;
    const auto neighbors = g.Neighbors(v);
    const auto edge_labels = g.NeighborEdgeLabels(v);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      if (neighbors[i] == excluded) continue;
      r.emplace_back(neighbors[i], edge_labels[i]);
    }
    std::sort(r.begin(), r.end());
    return r;
  };
  if (g.original_label(g.label(a)) != g.original_label(g.label(b))) {
    return false;
  }
  return row(a, b) == row(b, a);
}

// The canonical adjacency encoding of a discrete coloring: vertex count and
// edge count, the label sequence by canonical position, then per position
// the back-edges to earlier positions with their edge labels. Two discrete
// colorings of isomorphic graphs produce comparable encodings; the
// lexicographic minimum over all individualization-refinement leaves is the
// canonical key.
std::vector<uint64_t> Encode(const Graph& g, const Coloring& colors) {
  const uint32_t n = g.NumVertices();
  std::vector<VertexId> order(n);
  for (VertexId v = 0; v < n; ++v) order[colors[v]] = v;
  std::vector<uint64_t> words;
  words.reserve(2 + n + n + 2 * g.NumEdges());
  words.push_back(n);
  words.push_back(g.NumEdges());
  for (uint32_t p = 0; p < n; ++p) {
    words.push_back(g.original_label(g.label(order[p])));
  }
  std::vector<uint64_t> back;
  for (uint32_t p = 0; p < n; ++p) {
    back.clear();
    const VertexId v = order[p];
    const auto neighbors = g.Neighbors(v);
    const auto edge_labels = g.NeighborEdgeLabels(v);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      const uint32_t q = colors[neighbors[i]];
      if (q < p) {
        back.push_back((static_cast<uint64_t>(q) << 32) | edge_labels[i]);
      }
    }
    std::sort(back.begin(), back.end());
    words.push_back(back.size());
    words.insert(words.end(), back.begin(), back.end());
  }
  return words;
}

struct SearchState {
  const Graph& g;
  uint64_t leaves = 0;
  uint64_t max_leaves;
  bool aborted = false;
  bool have_best = false;
  std::vector<uint64_t> best_key{};
  Coloring best_colors{};
};

// Individualization-refinement: `colors` is already refined. At a leaf the
// encoding competes for the minimum; at an internal node the first
// non-singleton cell is branched over, one branch per non-twin member.
void Search(SearchState* state, const Coloring& colors) {
  if (state->aborted) return;
  const uint32_t n = static_cast<uint32_t>(colors.size());
  if (IsDiscrete(colors)) {
    if (++state->leaves > state->max_leaves) {
      state->aborted = true;
      return;
    }
    std::vector<uint64_t> key = Encode(state->g, colors);
    if (!state->have_best || key < state->best_key) {
      state->have_best = true;
      state->best_key = std::move(key);
      state->best_colors = colors;
    }
    return;
  }

  // The first (smallest-start) cell with more than one member is the
  // branch target — the same rule in every branch, so the set of explored
  // leaves is isomorphism-invariant.
  uint32_t target_color = 0;
  std::vector<VertexId> members;
  for (uint32_t c = 0; c < n && members.size() < 2; ++c) {
    members.clear();
    for (VertexId v = 0; v < n; ++v) {
      if (colors[v] == c) members.push_back(v);
    }
    target_color = c;
  }
  std::sort(members.begin(), members.end());

  std::vector<VertexId> tried;
  for (VertexId v : members) {
    if (state->aborted) return;
    bool twin = false;
    for (VertexId t : tried) {
      if (AreTwins(state->g, t, v)) {
        twin = true;
        break;
      }
    }
    if (twin) continue;
    tried.push_back(v);
    Coloring child = colors;
    // Individualize v at the front of its cell, then re-refine.
    for (VertexId w : members) {
      if (w != v) child[w] = target_color + 1;
    }
    Refine(state->g, &child);
    Search(state, child);
  }
}

}  // namespace

CanonicalQuery CanonicalizeQuery(const Graph& g, uint64_t max_leaves) {
  CanonicalQuery result;
  const uint32_t n = g.NumVertices();
  if (n == 0) {
    result.key = {0, 0};
    return result;
  }

  // Seed colors from the relabeling-invariant pair (vertex label, degree);
  // Refine folds in the neighborhood structure.
  std::vector<std::pair<std::pair<Label, uint32_t>, VertexId>> seed;
  seed.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    seed.push_back({{g.original_label(g.label(v)), g.degree(v)}, v});
  }
  std::sort(seed.begin(), seed.end());
  Coloring colors(n);
  for (uint32_t i = 0; i < n; ++i) {
    colors[seed[i].second] =
        (i > 0 && seed[i].first == seed[i - 1].first) ? colors[seed[i - 1].second]
                                                      : i;
  }
  Refine(g, &colors);

  SearchState state{g, 0, max_leaves};
  Search(&state, colors);

  if (state.aborted || !state.have_best) {
    // Canonization abandoned (adversarially regular graph): fall back to
    // the identity order so callers still get a well-formed — but NOT
    // relabeling-invariant — key, flagged uncacheable.
    result.complete = false;
    Coloring identity(n);
    for (VertexId v = 0; v < n; ++v) identity[v] = v;
    result.key = Encode(g, identity);
    result.to_canonical = identity;
    result.from_canonical = identity;
    return result;
  }

  result.key = std::move(state.best_key);
  result.to_canonical = state.best_colors;
  result.from_canonical.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    result.from_canonical[state.best_colors[v]] = v;
  }
  return result;
}

Graph BuildCanonicalGraph(const Graph& g, const CanonicalQuery& form) {
  const uint32_t n = g.NumVertices();
  std::vector<Label> labels(n);
  for (uint32_t p = 0; p < n; ++p) {
    labels[p] = g.original_label(g.label(form.from_canonical[p]));
  }
  std::vector<Edge> edges;
  std::vector<Label> edge_labels;
  for (const auto& [edge, label] : g.LabeledEdgeList()) {
    edges.emplace_back(form.to_canonical[edge.first],
                       form.to_canonical[edge.second]);
    edge_labels.push_back(label);
  }
  return Graph::FromLabeledEdges(std::move(labels), edges, edge_labels);
}

Graph PermuteVertices(const Graph& g, const std::vector<VertexId>& perm) {
  const uint32_t n = g.NumVertices();
  std::vector<Label> labels(n);
  for (VertexId v = 0; v < n; ++v) {
    labels[perm[v]] = g.original_label(g.label(v));
  }
  std::vector<Edge> edges;
  std::vector<Label> edge_labels;
  for (const auto& [edge, label] : g.LabeledEdgeList()) {
    edges.emplace_back(perm[edge.first], perm[edge.second]);
    edge_labels.push_back(label);
  }
  return Graph::FromLabeledEdges(std::move(labels), edges, edge_labels);
}

}  // namespace daf
