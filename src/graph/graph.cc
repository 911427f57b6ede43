#include "graph/graph.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <mutex>

#include "graph/seed_bucket.h"
#include "util/timer.h"

namespace daf {

// The lazily built seeding buckets of one graph. Every graph gets one, and
// most (query graphs) never seed anything, so until the first request it
// is a once-flag and a null pointer. The first request allocates the
// per-label slots; the first request for a label builds its bucket, and
// concurrent requests wait for that build.
class SeedIndex {
 public:
  const SeedBucket& Bucket(const Graph& g, Label l, double* build_ms) {
    std::call_once(slots_once_, [&] {
      slots_ = std::make_unique<Slot[]>(g.NumLabels());
    });
    Slot& slot = slots_[l];
    std::call_once(slot.once, [&] {
      Stopwatch timer;
      slot.bucket = SeedBucket::Build(g, l);
      if (build_ms != nullptr) *build_ms += timer.ElapsedMs();
    });
    return slot.bucket;
  }

 private:
  struct Slot {
    std::once_flag once;
    SeedBucket bucket;
  };
  std::once_flag slots_once_;
  std::unique_ptr<Slot[]> slots_;
};

SeedBucket SeedBucket::Build(const Graph& g, Label l) {
  SeedBucket b;
  const std::span<const VertexId> vertices = g.VerticesWithLabel(l);
  b.entries.reserve(vertices.size());
  b.degrees_desc.reserve(vertices.size());
  for (VertexId v : vertices) {
    SeedEntry e{.id = v,
                .degree = g.degree(v),
                .max_neighbor_degree = g.MaxNeighborDegree(v),
                .run_begin = static_cast<uint32_t>(b.runs.size()),
                .signature = 0};
    for (VertexId w : g.Neighbors(v)) {
      const Label lw = g.label(w);
      if (b.runs.size() > e.run_begin && b.runs.back().label == lw) {
        ++b.runs.back().count;
      } else {
        b.runs.push_back({lw, 1});
        e.signature |= uint64_t{1} << (lw & 63);
      }
    }
    b.entries.push_back(e);
    b.degrees_desc.push_back(e.degree);
  }
  b.runs.shrink_to_fit();
  std::sort(b.degrees_desc.begin(), b.degrees_desc.end(),
            std::greater<uint32_t>());
  return b;
}

const SeedBucket& Graph::SeedBucketOf(Label l, double* build_ms) const {
  assert(l < NumLabels());
  return seed_index_->Bucket(*this, l, build_ms);
}

Graph Graph::FromEdges(std::vector<Label> labels,
                       const std::vector<Edge>& edges) {
  return FromLabeledEdges(std::move(labels), edges, {});
}

Label Graph::DenseLabel(Label original) const {
  auto it = std::lower_bound(original_labels_.begin(),
                             original_labels_.end(), original);
  if (it == original_labels_.end() || *it != original) {
    return static_cast<Label>(-1);
  }
  return static_cast<Label>(it - original_labels_.begin());
}

Graph Graph::FromLabeledEdges(std::vector<Label> labels,
                              const std::vector<Edge>& edges,
                              const std::vector<Label>& edge_labels) {
  Graph g;
  const uint32_t n = static_cast<uint32_t>(labels.size());
  assert(edge_labels.empty() || edge_labels.size() == edges.size());

  // Remap labels to a dense 0..k-1 range preserving relative order.
  std::vector<Label> sorted_labels = labels;
  std::sort(sorted_labels.begin(), sorted_labels.end());
  sorted_labels.erase(
      std::unique(sorted_labels.begin(), sorted_labels.end()),
      sorted_labels.end());
  g.original_labels_ = sorted_labels;
  g.labels_.resize(n);
  for (uint32_t v = 0; v < n; ++v) {
    g.labels_[v] = static_cast<Label>(
        std::lower_bound(sorted_labels.begin(), sorted_labels.end(),
                         labels[v]) -
        sorted_labels.begin());
  }
  // Deduplicate edges, dropping self-loops; normalize to u < v. A stable
  // sort + unique keeps the *first* occurrence of a duplicated edge, so its
  // edge label wins.
  struct LabeledEdge {
    Edge edge;
    Label label;
  };
  std::vector<LabeledEdge> clean;
  clean.reserve(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    if (e.first == e.second) continue;
    assert(e.first < n && e.second < n);
    clean.push_back({{std::min(e.first, e.second),
                      std::max(e.first, e.second)},
                     edge_labels.empty() ? 0 : edge_labels[i]});
  }
  std::stable_sort(clean.begin(), clean.end(),
                   [](const LabeledEdge& a, const LabeledEdge& b) {
                     return a.edge < b.edge;
                   });
  clean.erase(std::unique(clean.begin(), clean.end(),
                          [](const LabeledEdge& a, const LabeledEdge& b) {
                            return a.edge == b.edge;
                          }),
              clean.end());

  // CSR with adjacency (and aligned edge labels) sorted by (label, id).
  g.offsets_.assign(n + 1, 0);
  for (const LabeledEdge& e : clean) {
    ++g.offsets_[e.edge.first + 1];
    ++g.offsets_[e.edge.second + 1];
  }
  for (uint32_t v = 0; v < n; ++v) g.offsets_[v + 1] += g.offsets_[v];
  g.adjacency_.resize(clean.size() * 2);
  g.edge_labels_.resize(clean.size() * 2);
  {
    std::vector<uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
    for (const LabeledEdge& e : clean) {
      g.adjacency_[cursor[e.edge.first]] = e.edge.second;
      g.edge_labels_[cursor[e.edge.first]++] = e.label;
      g.adjacency_[cursor[e.edge.second]] = e.edge.first;
      g.edge_labels_[cursor[e.edge.second]++] = e.label;
    }
  }
  {
    std::vector<std::pair<VertexId, Label>> scratch;
    for (uint32_t v = 0; v < n; ++v) {
      const uint64_t begin = g.offsets_[v];
      const uint64_t end = g.offsets_[v + 1];
      scratch.clear();
      for (uint64_t i = begin; i < end; ++i) {
        scratch.emplace_back(g.adjacency_[i], g.edge_labels_[i]);
      }
      std::sort(scratch.begin(), scratch.end(),
                [&g](const auto& a, const auto& b) {
                  return std::make_pair(g.labels_[a.first], a.first) <
                         std::make_pair(g.labels_[b.first], b.first);
                });
      for (uint64_t i = begin; i < end; ++i) {
        g.adjacency_[i] = scratch[i - begin].first;
        g.edge_labels_[i] = scratch[i - begin].second;
      }
    }
  }
  g.BuildDerivedIndexes();
  return g;
}

void Graph::BuildDerivedIndexes() {
  const uint32_t n = NumVertices();
  const uint32_t num_labels = static_cast<uint32_t>(original_labels_.size());

  nontrivial_edge_labels_ = false;
  for (Label l : edge_labels_) {
    if (l != 0) {
      nontrivial_edge_labels_ = true;
      break;
    }
  }

  // Max neighbor degree.
  max_neighbor_degree_.assign(n, 0);
  for (uint32_t v = 0; v < n; ++v) {
    for (VertexId u : Neighbors(v)) {
      max_neighbor_degree_[v] = std::max(max_neighbor_degree_[v], degree(u));
    }
  }

  // Label index.
  label_frequency_.assign(num_labels, 0);
  for (uint32_t v = 0; v < n; ++v) ++label_frequency_[labels_[v]];
  label_offsets_.assign(num_labels + 1, 0);
  for (uint32_t l = 0; l < num_labels; ++l) {
    label_offsets_[l + 1] = label_offsets_[l] + label_frequency_[l];
  }
  vertices_by_label_.resize(n);
  {
    std::vector<uint64_t> cursor(label_offsets_.begin(),
                                 label_offsets_.end() - 1);
    for (uint32_t v = 0; v < n; ++v) {
      vertices_by_label_[cursor[labels_[v]]++] = v;
    }
  }
  seed_index_ = std::make_shared<SeedIndex>();
}

Graph::CsrParts Graph::ToCsrParts() const {
  CsrParts parts;
  const uint32_t n = NumVertices();
  parts.labels.resize(n);
  for (uint32_t v = 0; v < n; ++v) {
    parts.labels[v] = original_labels_[labels_[v]];
  }
  parts.offsets = offsets_;
  parts.adjacency = adjacency_;
  if (nontrivial_edge_labels_) parts.edge_labels = edge_labels_;
  return parts;
}

std::optional<Graph> Graph::FromCsrParts(CsrParts parts, std::string* error) {
  auto fail = [&](const char* msg) -> std::optional<Graph> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  const size_t n = parts.labels.size();
  if (parts.offsets.size() != n + 1) return fail("offsets size != |V|+1");
  if (parts.offsets.front() != 0) return fail("offsets[0] != 0");
  for (size_t v = 0; v < n; ++v) {
    if (parts.offsets[v] > parts.offsets[v + 1]) {
      return fail("offsets not monotonically non-decreasing");
    }
  }
  if (parts.offsets.back() != parts.adjacency.size()) {
    return fail("offsets[|V|] != adjacency size");
  }
  if (parts.adjacency.size() % 2 != 0) return fail("adjacency size is odd");
  if (!parts.edge_labels.empty() &&
      parts.edge_labels.size() != parts.adjacency.size()) {
    return fail("edge_labels size != adjacency size");
  }

  Graph g;
  g.labels_.resize(n);
  {
    std::vector<Label> sorted_labels = parts.labels;
    std::sort(sorted_labels.begin(), sorted_labels.end());
    sorted_labels.erase(
        std::unique(sorted_labels.begin(), sorted_labels.end()),
        sorted_labels.end());
    g.original_labels_ = std::move(sorted_labels);
    for (size_t v = 0; v < n; ++v) {
      g.labels_[v] = static_cast<Label>(
          std::lower_bound(g.original_labels_.begin(),
                           g.original_labels_.end(), parts.labels[v]) -
          g.original_labels_.begin());
    }
  }
  g.offsets_ = std::move(parts.offsets);
  g.adjacency_ = std::move(parts.adjacency);
  if (parts.edge_labels.empty()) {
    g.edge_labels_.assign(g.adjacency_.size(), 0);
  } else {
    g.edge_labels_ = std::move(parts.edge_labels);
  }

  // Per-vertex invariants: ids in range, no self-loops, strictly
  // increasing (dense label, id) order (strictness rules out duplicates).
  for (size_t v = 0; v < n; ++v) {
    const uint64_t begin = g.offsets_[v];
    const uint64_t end = g.offsets_[v + 1];
    for (uint64_t i = begin; i < end; ++i) {
      const VertexId w = g.adjacency_[i];
      if (w >= n) return fail("adjacency references an out-of-range vertex");
      if (w == v) return fail("adjacency contains a self-loop");
      if (i > begin) {
        const VertexId p = g.adjacency_[i - 1];
        if (std::make_pair(g.labels_[p], p) >=
            std::make_pair(g.labels_[w], w)) {
          return fail("adjacency not strictly (label, id)-sorted");
        }
      }
    }
  }
  // Symmetry: every directed entry must have its mirror, with an equal
  // edge label. O(V + E) by sequence regeneration instead of a binary
  // search per edge: scanning sources in (dense label, id) order and
  // appending to each target's cursor reproduces exactly the (label,
  // id)-sorted slice the target must already hold — any deviation (id or
  // edge label) is an asymmetry. Binary-search probes cost E log(deg)
  // cache-hostile lookups, which dominated snapshot cold-start.
  {
    std::vector<uint32_t> order(n);  // vertex ids in (label, id) order
    {
      std::vector<uint64_t> cursor(g.original_labels_.size() + 1, 0);
      for (size_t v = 0; v < n; ++v) ++cursor[g.labels_[v] + 1u];
      for (size_t l = 1; l < cursor.size(); ++l) cursor[l] += cursor[l - 1];
      for (size_t v = 0; v < n; ++v) {
        order[cursor[g.labels_[v]]++] = static_cast<uint32_t>(v);
      }
    }
    std::vector<uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
    for (const uint32_t v : order) {
      const uint64_t begin = g.offsets_[v];
      const uint64_t end = g.offsets_[v + 1];
      for (uint64_t i = begin; i < end; ++i) {
        const VertexId w = g.adjacency_[i];
        uint64_t& c = cursor[w];
        if (c >= g.offsets_[w + 1] || g.adjacency_[c] != v) {
          return fail("adjacency is not symmetric");
        }
        if (g.edge_labels_[c] != g.edge_labels_[i]) {
          return fail("edge labels are not symmetric");
        }
        ++c;
      }
    }
  }

  g.BuildDerivedIndexes();
  if (error != nullptr) error->clear();
  return g;
}

std::span<const VertexId> Graph::NeighborsWithLabel(VertexId v,
                                                    Label l) const {
  std::span<const VertexId> all = Neighbors(v);
  auto lo = std::lower_bound(
      all.begin(), all.end(), l,
      [this](VertexId a, Label key) { return labels_[a] < key; });
  auto hi = std::upper_bound(
      lo, all.end(), l,
      [this](Label key, VertexId a) { return key < labels_[a]; });
  return {lo, hi};
}

Graph::NeighborSlice Graph::NeighborsWithLabelAndEdges(VertexId v,
                                                       Label l) const {
  std::span<const VertexId> vertices = NeighborsWithLabel(v, l);
  if (vertices.empty()) return {{}, {}};
  const uint64_t base =
      static_cast<uint64_t>(vertices.data() - adjacency_.data());
  return {vertices, {edge_labels_.data() + base, vertices.size()}};
}

uint32_t Graph::NeighborLabelVariety(VertexId v) const {
  std::span<const VertexId> all = Neighbors(v);
  uint32_t variety = 0;
  Label prev = static_cast<Label>(-1);
  for (VertexId u : all) {
    if (labels_[u] != prev) {
      ++variety;
      prev = labels_[u];
    }
  }
  return variety;
}

namespace {

// Index of v within u's adjacency slice, or -1 when the edge is absent.
// `slice` must be u's neighbors-with-v's-label sub-range and `base` its
// offset into the global adjacency array.
int64_t FindInSlice(std::span<const VertexId> slice, uint64_t base,
                    VertexId v) {
  auto it = std::lower_bound(slice.begin(), slice.end(), v);
  if (it == slice.end() || *it != v) return -1;
  return static_cast<int64_t>(base + (it - slice.begin()));
}

}  // namespace

int64_t Graph::FindNeighborIndex(VertexId u, VertexId v) const {
  std::span<const VertexId> slice = NeighborsWithLabel(u, labels_[v]);
  if (slice.empty()) return -1;
  uint64_t base =
      offsets_[u] + static_cast<uint64_t>(slice.data() -
                                          (adjacency_.data() + offsets_[u]));
  return FindInSlice(slice, base, v);
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (degree(u) > degree(v)) std::swap(u, v);
  std::span<const VertexId> candidates = NeighborsWithLabel(u, labels_[v]);
  return std::binary_search(candidates.begin(), candidates.end(), v);
}

bool Graph::HasEdgeWithLabel(VertexId u, VertexId v, Label edge_label) const {
  if (degree(u) > degree(v)) std::swap(u, v);
  int64_t index = FindNeighborIndex(u, v);
  return index >= 0 && edge_labels_[static_cast<uint64_t>(index)] ==
                           edge_label;
}

Label Graph::EdgeLabelBetween(VertexId u, VertexId v) const {
  int64_t index = FindNeighborIndex(u, v);
  assert(index >= 0);
  return edge_labels_[static_cast<uint64_t>(index)];
}

std::vector<Edge> Graph::EdgeList() const {
  std::vector<Edge> edges;
  edges.reserve(NumEdges());
  for (uint32_t v = 0; v < NumVertices(); ++v) {
    for (VertexId u : Neighbors(v)) {
      if (v < u) edges.emplace_back(v, u);
    }
  }
  return edges;
}

std::vector<std::pair<Edge, Label>> Graph::LabeledEdgeList() const {
  std::vector<std::pair<Edge, Label>> edges;
  edges.reserve(NumEdges());
  for (uint32_t v = 0; v < NumVertices(); ++v) {
    auto neighbors = Neighbors(v);
    auto labels = NeighborEdgeLabels(v);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      if (v < neighbors[i]) {
        edges.push_back({{v, neighbors[i]}, labels[i]});
      }
    }
  }
  return edges;
}

}  // namespace daf
