#include "dyn/delta_graph.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "graph/query_extract.h"
#include "util/fault_inject.h"

namespace daf::dyn {

DeltaGraph::DeltaGraph(Graph base, uint64_t initial_version, bool restore)
    : base_(std::make_shared<const Graph>(std::move(base))) {
  const uint32_t n = base_->NumVertices();
  labels_.resize(n);
  alive_.assign(n, 1);
  degree_.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    labels_[v] = base_->original_label(base_->label(v));
    degree_[v] = base_->degree(v);
    if (restore && labels_[v] == kTombstoneLabel) {
      // The snapshot serialized a tombstone as an isolated labeled vertex
      // (Materialize does); restoring marks it dead again so its id stays
      // burned and no future query can match it.
      assert(degree_[v] == 0);
      alive_[v] = 0;
    }
  }
  num_edges_ = base_->NumEdges();
  version_ = initial_version;
  snapshot_ = base_;
  snapshot_version_ = initial_version;
}

bool DeltaGraph::EdgeInBase(VertexId u, VertexId v, Label* label_out) const {
  if (!InBase(u) || !InBase(v)) return false;
  if (!base_->HasEdge(u, v)) return false;
  if (label_out != nullptr) *label_out = base_->EdgeLabelBetween(u, v);
  return true;
}

bool DeltaGraph::OverlayEdgeLabel(VertexId u, VertexId v,
                                  Label* label_out) const {
  const Overlay* ov = OverlayFor(u);
  if (ov == nullptr) return false;
  for (const auto& [w, l] : ov->added) {
    if (w == v) {
      if (label_out != nullptr) *label_out = l;
      return true;
    }
  }
  return false;
}

bool DeltaGraph::EdgeLabelNow(VertexId u, VertexId v, Label* label_out) const {
  if (u == v || u >= NumVertices() || v >= NumVertices()) return false;
  if (OverlayEdgeLabel(u, v, label_out)) return true;
  const Overlay* ov = OverlayFor(u);
  if (ov != nullptr && ov->Removed(v)) return false;
  return EdgeInBase(u, v, label_out);
}

bool DeltaGraph::HasEdge(VertexId u, VertexId v) const {
  return EdgeLabelNow(u, v, nullptr);
}

bool DeltaGraph::Normalize(const UpdateBatch& batch, NormalizedBatch* out,
                           std::string* error) const {
  assert(out != nullptr);
  *out = NormalizedBatch{};
  const uint32_t old_n = NumVertices();
  const uint32_t new_n =
      old_n + static_cast<uint32_t>(batch.add_vertices.size());

  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    *out = NormalizedBatch{};
    return false;
  };

  for (Label l : batch.add_vertices) {
    if (l == kTombstoneLabel || l == kNoSuchLabel) {
      return fail("reserved label in add_vertices");
    }
  }
  for (uint32_t i = 0; i < batch.add_vertices.size(); ++i) {
    out->new_vertices.push_back(old_n + i);
  }

  auto vertex_ok = [&](VertexId v) {
    if (v >= new_n) return false;
    if (v < old_n && !alive_[v]) return false;
    return true;
  };

  // Simulate the edge operations in order over (current state + pending
  // changes of this batch). `pending` maps edge key -> (present, label).
  struct Pending {
    bool present;
    Label label;
  };
  std::unordered_map<uint64_t, Pending> pending;
  auto current = [&](VertexId u, VertexId v, Label* label) -> bool {
    auto it = pending.find(EdgeKey(u, v));
    if (it != pending.end()) {
      if (label != nullptr) *label = it->second.label;
      return it->second.present;
    }
    // New vertices of this batch have no pre-existing edges.
    if (u >= old_n || v >= old_n) return false;
    return EdgeLabelNow(u, v, label);
  };

  for (const EdgeUpdate& e : batch.insert_edges) {
    if (!vertex_ok(e.u) || !vertex_ok(e.v)) {
      return fail("insert_edges references an invalid or removed vertex");
    }
    if (e.u == e.v) {
      ++out->ignored_ops;
      continue;
    }
    Label existing = 0;
    if (current(e.u, e.v, &existing) && existing == e.edge_label) {
      ++out->ignored_ops;  // duplicate insert, same label
      continue;
    }
    // New edge, or a label change (modeled as remove(old) + insert(new)
    // by the final diff below).
    pending[EdgeKey(e.u, e.v)] = {true, e.edge_label};
  }
  for (const EdgeUpdate& e : batch.remove_edges) {
    if (!vertex_ok(e.u) || !vertex_ok(e.v)) {
      return fail("remove_edges references an invalid or removed vertex");
    }
    if (e.u == e.v) {
      ++out->ignored_ops;
      continue;
    }
    if (!current(e.u, e.v, nullptr)) {
      ++out->ignored_ops;  // removing an absent edge
      continue;
    }
    pending[EdgeKey(e.u, e.v)] = {false, 0};
  }

  std::unordered_set<VertexId> removed_set;
  for (VertexId v : batch.remove_vertices) {
    if (!vertex_ok(v)) {
      return fail("remove_vertices references an invalid or removed vertex");
    }
    if (v >= old_n) {
      return fail("remove_vertices targets a vertex added in this batch");
    }
    if (!removed_set.insert(v).second) {
      ++out->ignored_ops;
      continue;
    }
    out->removed_vertices.push_back(v);
    // Expand into incident-edge removals against the simulated state:
    // pre-existing incident edges not already removed in this batch...
    ForEachNeighbor(v, [&](VertexId w, Label) {
      if (!pending.count(EdgeKey(v, w))) {
        pending[EdgeKey(v, w)] = {false, 0};
      }
      return true;
    });
    // ...plus edges attached to v earlier in this same batch.
    for (auto& [key, p] : pending) {
      const VertexId a = static_cast<VertexId>(key >> 32);
      const VertexId b = static_cast<VertexId>(key & 0xffffffffu);
      if (p.present && (a == v || b == v)) p.present = false;
    }
  }

  // Diff the simulated final state against the pre-batch state.
  for (const auto& [key, p] : pending) {
    const VertexId a = static_cast<VertexId>(key >> 32);
    const VertexId b = static_cast<VertexId>(key & 0xffffffffu);
    Label before_label = 0;
    const bool before =
        a < old_n && b < old_n && EdgeLabelNow(a, b, &before_label);
    if (before && p.present) {
      if (before_label != p.label) {
        out->removes.push_back({a, b, before_label});
        out->inserts.push_back({a, b, p.label});
      }
      // else: net no-op (remove+reinsert with the same label, ...).
    } else if (before && !p.present) {
      out->removes.push_back({a, b, before_label});
    } else if (!before && p.present) {
      out->inserts.push_back({a, b, p.label});
    }
    // !before && !p.present: transient edge within the batch; net no-op.
  }

  // Deterministic order for seeds, tests, and subscriber streams.
  auto edge_less = [](const EdgeUpdate& x, const EdgeUpdate& y) {
    return EdgeKey(x.u, x.v) < EdgeKey(y.u, y.v);
  };
  std::sort(out->inserts.begin(), out->inserts.end(), edge_less);
  std::sort(out->removes.begin(), out->removes.end(), edge_less);
  std::sort(out->removed_vertices.begin(), out->removed_vertices.end());
  return true;
}

namespace {

// Sorted-vector set operations for Overlay::removed; each reports whether
// it changed the list.
bool InsertSorted(std::vector<VertexId>& list, VertexId w) {
  auto it = std::lower_bound(list.begin(), list.end(), w);
  if (it != list.end() && *it == w) return false;
  list.insert(it, w);
  return true;
}

bool EraseSorted(std::vector<VertexId>& list, VertexId w) {
  auto it = std::lower_bound(list.begin(), list.end(), w);
  if (it == list.end() || *it != w) return false;
  list.erase(it);
  return true;
}

}  // namespace

void DeltaGraph::InstallEdge(VertexId u, VertexId v, Label edge_label) {
  Overlay& ou = MutableOverlay(u);
  Overlay& ov = MutableOverlay(v);
  if (ou.Removed(v)) {
    // Re-inserting a previously removed base edge: back to base state if
    // the label matches; otherwise keep the removal and shadow it with an
    // added edge carrying the new label.
    Label base_label = 0;
    if (EdgeInBase(u, v, &base_label) && base_label == edge_label) {
      EraseSorted(ou.removed, v);
      EraseSorted(ov.removed, u);
      --removed_count_;
      ++degree_[u];
      ++degree_[v];
      ++num_edges_;
      return;
    }
  }
  for (auto& [w, l] : ou.added) {
    if (w == v) {
      // Label change on an overlay edge: rewrite both directions in place.
      l = edge_label;
      for (auto& [w2, l2] : ov.added) {
        if (w2 == u) l2 = edge_label;
      }
      return;
    }
  }
  ou.added.push_back({v, edge_label});
  ov.added.push_back({u, edge_label});
  ++added_count_;
  ++degree_[u];
  ++degree_[v];
  ++num_edges_;
}

void DeltaGraph::UninstallEdge(VertexId u, VertexId v) {
  auto drop_added = [](Overlay& o, VertexId w) {
    for (size_t i = 0; i < o.added.size(); ++i) {
      if (o.added[i].first == w) {
        o.added[i] = o.added.back();
        o.added.pop_back();
        return true;
      }
    }
    return false;
  };
  Overlay& ou = MutableOverlay(u);
  if (drop_added(ou, v)) {
    drop_added(MutableOverlay(v), u);
    --added_count_;
    --degree_[u];
    --degree_[v];
    --num_edges_;
    return;
  }
  if (EdgeInBase(u, v, nullptr) && InsertSorted(ou.removed, v)) {
    InsertSorted(MutableOverlay(v).removed, u);
    ++removed_count_;
    --degree_[u];
    --degree_[v];
    --num_edges_;
  }
}

ApplyResult DeltaGraph::ApplyBatch(const UpdateBatch& batch,
                                   NormalizedBatch* normalized) {
  ApplyResult result;
  NormalizedBatch local;
  NormalizedBatch* net = normalized != nullptr ? normalized : &local;
  std::string error;
  if (!Normalize(batch, net, &error)) {
    result.ok = false;
    result.error = error;
    result.version = version_;
    return result;
  }
  if (FAULT_POINT(delta_apply)) {
    result.ok = false;
    result.error = "injected fault: delta_apply";
    result.version = version_;
    *net = NormalizedBatch{};
    return result;
  }

  return Install(*net, batch.add_vertices);
}

ApplyResult DeltaGraph::Install(const NormalizedBatch& net,
                                const std::vector<Label>& new_vertex_labels) {
  for (uint32_t i = 0; i < net.new_vertices.size(); ++i) {
    assert(net.new_vertices[i] == labels_.size());
    labels_.push_back(new_vertex_labels[i]);
    alive_.push_back(1);
    degree_.push_back(0);
  }
  for (const EdgeUpdate& e : net.removes) UninstallEdge(e.u, e.v);
  for (const EdgeUpdate& e : net.inserts) InstallEdge(e.u, e.v, e.edge_label);
  for (VertexId v : net.removed_vertices) {
    assert(degree_[v] == 0);
    alive_[v] = 0;
    labels_[v] = kTombstoneLabel;
  }
  ++version_;
  snapshot_.reset();  // invalidate the Materialize cache

  ApplyResult result;
  result.ok = true;
  result.version = version_;
  result.inserted_edges = net.inserts.size();
  result.removed_edges = net.removes.size();
  result.added_vertices = net.new_vertices.size();
  result.removed_vertices = net.removed_vertices.size();
  result.ignored_ops = net.ignored_ops;
  return result;
}

ApplyResult DeltaGraph::ApplyNormalized(
    const NormalizedBatch& net, const std::vector<Label>& new_vertex_labels) {
  ApplyResult result;
  result.version = version_;
  auto fail = [&](const char* msg) {
    result.ok = false;
    result.error = msg;
    return result;
  };
  // The record was produced by Normalize at this exact version, but a
  // corrupt-yet-CRC-valid or out-of-place one must be rejected before any
  // change. Structural checks first: nothing below may index out of range.
  if (net.new_vertices.size() != new_vertex_labels.size()) {
    return fail("replay: new-vertex labels misaligned");
  }
  const uint32_t new_n =
      NumVertices() + static_cast<uint32_t>(net.new_vertices.size());
  for (uint32_t i = 0; i < net.new_vertices.size(); ++i) {
    if (net.new_vertices[i] != NumVertices() + i) {
      return fail("replay: non-dense new-vertex ids");
    }
    if (new_vertex_labels[i] == kTombstoneLabel ||
        new_vertex_labels[i] == kNoSuchLabel) {
      return fail("replay: reserved label on new vertex");
    }
  }
  for (const EdgeUpdate& e : net.inserts) {
    if (e.u >= new_n || e.v >= new_n || e.u == e.v) {
      return fail("replay: insert endpoint out of range");
    }
  }
  for (const EdgeUpdate& e : net.removes) {
    if (e.u >= new_n || e.v >= new_n || e.u == e.v) {
      return fail("replay: remove endpoint out of range");
    }
  }
  for (VertexId v : net.removed_vertices) {
    if (v >= NumVertices()) {
      return fail("replay: removed vertex out of range");
    }
  }
  // Semantic checks against the current state, in Install's order
  // (removes, inserts, tombstones): a record that contradicts the graph
  // would leave degree_ and num_edges_ disagreeing with the snapshot.
  auto sorted_keys = [](const std::vector<EdgeUpdate>& edges) {
    std::vector<uint64_t> keys;
    keys.reserve(edges.size());
    for (const EdgeUpdate& e : edges) keys.push_back(EdgeKey(e.u, e.v));
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  auto has_duplicate = [](const std::vector<uint64_t>& keys) {
    return std::adjacent_find(keys.begin(), keys.end()) != keys.end();
  };
  const std::vector<uint64_t> removed_keys = sorted_keys(net.removes);
  if (has_duplicate(removed_keys)) {
    return fail("replay: remove of an absent edge");
  }
  for (const EdgeUpdate& e : net.removes) {
    if (!HasEdge(e.u, e.v)) return fail("replay: remove of an absent edge");
  }
  if (has_duplicate(sorted_keys(net.inserts))) {
    return fail("replay: insert of a present edge");
  }
  for (const EdgeUpdate& e : net.inserts) {
    if ((e.u < NumVertices() && !alive_[e.u]) ||
        (e.v < NumVertices() && !alive_[e.v])) {
      return fail("replay: insert touches a removed vertex");
    }
    // A present edge may be re-inserted only after this record removed it
    // (the encoding of a label change).
    if (HasEdge(e.u, e.v) &&
        !std::binary_search(removed_keys.begin(), removed_keys.end(),
                            EdgeKey(e.u, e.v))) {
      return fail("replay: insert of a present edge");
    }
  }
  if (!net.removed_vertices.empty()) {
    std::unordered_map<VertexId, int64_t> remaining;  // degree after edges
    for (VertexId v : net.removed_vertices) remaining[v] = degree_[v];
    auto adjust = [&](VertexId v, int64_t delta) {
      auto it = remaining.find(v);
      if (it != remaining.end()) it->second += delta;
    };
    for (const EdgeUpdate& e : net.removes) {
      adjust(e.u, -1);
      adjust(e.v, -1);
    }
    for (const EdgeUpdate& e : net.inserts) {
      adjust(e.u, 1);
      adjust(e.v, 1);
    }
    for (const auto& [v, degree] : remaining) {
      if (degree != 0) return fail("replay: removed vertex keeps edges");
    }
  }
  return Install(net, new_vertex_labels);
}

std::vector<std::pair<Edge, Label>> DeltaGraph::CurrentEdges() const {
  std::vector<std::pair<Edge, Label>> edges;
  edges.reserve(num_edges_);
  for (VertexId v = 0; v < NumVertices(); ++v) {
    ForEachNeighbor(v, [&](VertexId w, Label l) {
      if (v < w) edges.push_back({{v, w}, l});
      return true;
    });
  }
  return edges;
}

std::shared_ptr<const Graph> DeltaGraph::Materialize() const {
  if (snapshot_ != nullptr && snapshot_version_ == version_) {
    return snapshot_;
  }
  // One O(V + E) pass: each base row merged with its vertex's overlay,
  // straight into CSR arrays. Alive vertices never change label and the
  // dense remap preserves order, so a base row is already sorted by
  // (original label, id) — the output order; only the per-vertex overlay
  // lists need sorting. Tombstones keep kTombstoneLabel and have no edges.
  const uint32_t n = NumVertices();
  Graph::CsrParts parts;
  parts.labels = labels_;
  parts.offsets.resize(n + 1);
  parts.adjacency.reserve(2 * num_edges_);
  parts.edge_labels.reserve(2 * num_edges_);
  auto before = [this](VertexId a, VertexId b) {
    return labels_[a] != labels_[b] ? labels_[a] < labels_[b] : a < b;
  };
  std::vector<std::pair<VertexId, Label>> added;
  std::vector<VertexId> gone;
  for (VertexId v = 0; v < n; ++v) {
    parts.offsets[v] = parts.adjacency.size();
    std::span<const VertexId> row;
    std::span<const Label> row_labels;
    if (InBase(v)) {
      row = base_->Neighbors(v);
      row_labels = base_->NeighborEdgeLabels(v);
    }
    const Overlay* ov = OverlayFor(v);
    added.clear();
    gone.clear();
    if (ov != nullptr) {
      added = ov->added;
      std::sort(added.begin(), added.end(),
                [&](const auto& a, const auto& b) {
                  return before(a.first, b.first);
                });
      // The removed entries in the base row's own (base label, id) order,
      // so one forward walk skips them: their far end may be a tombstone
      // now, whose current label no longer matches its position.
      gone = ov->removed;
      std::sort(gone.begin(), gone.end(), [&](VertexId a, VertexId b) {
        const Label la = base_->label(a);
        const Label lb = base_->label(b);
        return la != lb ? la < lb : a < b;
      });
    }
    size_t k = 0;
    auto skip_removed = [&](size_t i) {
      while (i < row.size() && k < gone.size() && row[i] == gone[k]) {
        ++i;
        ++k;
      }
      return i;
    };
    size_t i = skip_removed(0);
    size_t j = 0;
    while (i < row.size() || j < added.size()) {
      if (j == added.size() ||
          (i < row.size() && before(row[i], added[j].first))) {
        parts.adjacency.push_back(row[i]);
        parts.edge_labels.push_back(row_labels[i]);
        i = skip_removed(i + 1);
      } else {
        parts.adjacency.push_back(added[j].first);
        parts.edge_labels.push_back(added[j].second);
        ++j;
      }
    }
    assert(k == gone.size());  // removed entries are base-row entries
  }
  parts.offsets[n] = parts.adjacency.size();
  std::string error;
  std::optional<Graph> g = Graph::FromCsrParts(std::move(parts), &error);
  if (!g.has_value()) {
    // ApplyNormalized rejects every record that could cause this, so it
    // is a DeltaGraph bug; serving a wrong snapshot would be worse.
    std::fprintf(stderr, "daf: DeltaGraph built an invalid snapshot: %s\n",
                 error.c_str());
    std::abort();
  }
  snapshot_ = std::make_shared<const Graph>(std::move(*g));
  snapshot_version_ = version_;
  return snapshot_;
}

void DeltaGraph::Compact() {
  base_ = Materialize();
  overlay_.clear();
  added_count_ = 0;
  removed_count_ = 0;
  // labels_/alive_/degree_/num_edges_ already describe the current state.
}

}  // namespace daf::dyn
