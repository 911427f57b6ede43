#include "daf/candidate_space.h"

#include <algorithm>

#include "graph/query_extract.h"
#include "graph/seed_bucket.h"
#include "util/bitset.h"
#include "util/timer.h"

namespace daf {

namespace {

// The neighborhood label frequency profile of a query vertex, in the data
// graph's label space: (label, count) pairs. Returns false if some neighbor
// label does not occur in the data graph (no candidate can then match).
// Both vectors are caller-provided scratch.
bool QueryNlfProfile(const Graph& query, const QueryDag& dag, VertexId u,
                     std::vector<Label>* neighbor_labels,
                     std::vector<std::pair<Label, uint32_t>>* profile) {
  profile->clear();
  neighbor_labels->clear();
  for (VertexId w : query.Neighbors(u)) {
    Label l = dag.DataLabel(w);
    if (l == kNoSuchLabel) return false;
    neighbor_labels->push_back(l);
  }
  std::sort(neighbor_labels->begin(), neighbor_labels->end());
  for (size_t i = 0; i < neighbor_labels->size();) {
    size_t j = i;
    while (j < neighbor_labels->size() &&
           (*neighbor_labels)[j] == (*neighbor_labels)[i]) {
      ++j;
    }
    profile->emplace_back((*neighbor_labels)[i],
                          static_cast<uint32_t>(j - i));
    i = j;
  }
  return true;
}

// True iff a vertex with neighbor-label runs `runs` meets the NLF profile:
// every profile label occurs with at least its count (injective) or at all.
// Both sides are ascending by label, so this is a two-pointer merge.
bool NlfCovers(std::span<const NlfRun> runs,
               const std::vector<std::pair<Label, uint32_t>>& profile,
               bool injective) {
  size_t ri = 0;
  for (const auto& [label, count] : profile) {
    while (ri < runs.size() && runs[ri].label < label) ++ri;
    if (ri == runs.size() || runs[ri].label != label ||
        runs[ri].count < (injective ? count : 1)) {
      return false;
    }
  }
  return true;
}

// Final-array storage: an arena allocation when `arena` is set, otherwise
// the CandidateSpace-owned vector (whose heap buffer is stable across
// moves of the owning object).
template <typename T>
T* AllocateFinal(size_t count, Arena* arena, std::vector<T>* own) {
  if (arena != nullptr) return arena->AllocateArray<T>(count);
  own->resize(count);
  return own->data();
}

// Transient budget charge for the build's staging buffers: `Update` samples
// the current capacity of the growing scratch vectors and charges the delta
// since the last sample; the destructor returns everything. The sampling
// points ride on the existing per-query-vertex stop polls, so a blow-up is
// noticed within one vertex's worth of growth.
class StagingCharge {
 public:
  explicit StagingCharge(MemoryBudget* budget) : budget_(budget) {}
  StagingCharge(const StagingCharge&) = delete;
  StagingCharge& operator=(const StagingCharge&) = delete;
  ~StagingCharge() {
    if (budget_ != nullptr && charged_ > 0) budget_->Uncharge(charged_);
  }

  void Update(const CsBuildScratch& s) {
    if (budget_ == nullptr) return;
    const uint64_t now =
        s.cand_data.capacity() * sizeof(VertexId) +
        s.edge_offsets.capacity() * sizeof(uint64_t) +
        s.edge_targets.capacity() * sizeof(uint32_t);
    if (now > charged_) {
      budget_->Charge(now - charged_);
      charged_ = now;
    }
  }

 private:
  MemoryBudget* budget_;
  uint64_t charged_ = 0;
};

}  // namespace

CandidateSpace CandidateSpace::Build(const Graph& query, const QueryDag& dag,
                                     const Graph& data,
                                     const Options& options) {
  CsBuildScratch scratch;
  return BuildImpl(query, dag, data, options, nullptr, &scratch);
}

CandidateSpace CandidateSpace::Build(const Graph& query, const QueryDag& dag,
                                     const Graph& data, const Options& options,
                                     Arena* arena, CsBuildScratch* scratch) {
  return BuildImpl(query, dag, data, options, arena, scratch);
}

CandidateSpace CandidateSpace::BuildImpl(const Graph& query,
                                         const QueryDag& dag,
                                         const Graph& data,
                                         const Options& options, Arena* arena,
                                         CsBuildScratch* scratch) {
  const int refinement_steps = options.refinement_steps;
  obs::CsProfile* prof = options.profile;
  if (prof != nullptr) prof->Reset();
  Stopwatch stage_timer;
  CandidateSpace cs;
  const uint32_t n = query.NumVertices();
  const uint32_t data_n = data.NumVertices();
  cs.num_vertices_ = n;

  // Early-exit support: the predicate is polled once per query vertex in
  // each O(n · data) loop below. When it fires, the build commits a
  // structurally valid *empty* CS (offsets exist, every set has size 0, no
  // edge storage) tagged with the cause; callers must test interrupted()
  // before reading anything else.
  const StopCondition* stop = options.stop;
  StagingCharge staging(options.budget);
  StopCause stop_cause = StopCause::kNone;
  auto stopped = [&]() {
    if (stop == nullptr || stop_cause != StopCause::kNone) {
      return stop_cause != StopCause::kNone;
    }
    stop_cause = stop->Check();
    return stop_cause != StopCause::kNone;
  };
  auto commit_interrupted = [&]() {
    cs.interrupt_cause_ = stop_cause;
    uint64_t* final_offsets =
        AllocateFinal<uint64_t>(n + 1, arena, &cs.own_cand_offsets_);
    std::fill(final_offsets, final_offsets + n + 1, uint64_t{0});
    cs.cand_offsets_ = final_offsets;
    cs.cand_data_ = nullptr;
    cs.num_edge_targets_ = 0;
  };

  // Candidate membership bitmaps, kept in sync with the candidate segments.
  if (scratch->valid.size() < n) scratch->valid.resize(n);
  for (uint32_t u = 0; u < n; ++u) scratch->valid[u].Resize(data_n);
  std::vector<Bitset>& valid = scratch->valid;

  // --- Initial candidate sets: label + degree + MND + NLF local filters,
  // staged as per-u segments of one flat buffer. Each query vertex scans
  // its label's seeding bucket once: degree, then MND, then the neighbor-
  // label signature, and the exact NLF run merge only on signature
  // survivors. (The paper applies the local filters during the first
  // q_D^{-1} pass; applying them while seeding C_ini is equivalent and
  // cheaper.)
  std::vector<VertexId>& cand_data = scratch->cand_data;
  std::vector<uint64_t>& cand_offsets = scratch->cand_offsets;
  cand_data.clear();
  cand_offsets.assign(n + 1, 0);
  std::vector<std::pair<Label, uint32_t>>& profile = scratch->nlf_profile;
  for (uint32_t u = 0; u < n; ++u) {
    staging.Update(*scratch);
    if (stopped()) {
      commit_interrupted();
      return cs;
    }
    cand_offsets[u] = cand_data.size();
    Label dl = dag.DataLabel(u);
    if (dl == kNoSuchLabel) continue;
    profile.clear();
    if (options.use_nlf_filter &&
        !QueryNlfProfile(query, dag, u, &scratch->neighbor_labels, &profile)) {
      continue;  // some neighbor label cannot exist in the data graph
    }
    uint64_t required_signature = 0;
    for (const auto& entry : profile) {
      required_signature |= uint64_t{1} << (entry.first & 63);
    }
    uint32_t max_nbr_deg = 0;
    for (VertexId w : query.Neighbors(u)) {
      max_nbr_deg = std::max(max_nbr_deg, query.degree(w));
    }
    // Disabled filters become bounds every vertex meets.
    const uint32_t min_degree = options.injective ? query.degree(u) : 0;
    const uint32_t min_mnd =
        options.injective && options.use_mnd_filter ? max_nbr_deg : 0;
    const SeedBucket& bucket = data.SeedBucketOf(
        dl, prof != nullptr ? &prof->index_build_ms : nullptr);
    for (size_t i = 0; i < bucket.entries.size(); ++i) {
      const SeedEntry& e = bucket.entries[i];
      if (prof != nullptr) ++prof->seed_considered;
      if (e.degree < min_degree) {
        if (prof != nullptr) ++prof->degree_rejected;
        continue;
      }
      if (e.max_neighbor_degree < min_mnd) {
        if (prof != nullptr) ++prof->mnd_rejected;
        continue;
      }
      if (!profile.empty() &&
          ((e.signature & required_signature) != required_signature ||
           !NlfCovers(bucket.Runs(i), profile, options.injective))) {
        if (prof != nullptr) ++prof->nlf_rejected;
        continue;
      }
      cand_data.push_back(e.id);
      valid[u].Set(e.id);
    }
  }
  cand_offsets[n] = cand_data.size();
  std::vector<uint32_t>& cand_size = scratch->cand_size;
  cand_size.assign(n, 0);
  for (uint32_t u = 0; u < n; ++u) {
    cand_size[u] = static_cast<uint32_t>(cand_offsets[u + 1] -
                                         cand_offsets[u]);
  }
  if (prof != nullptr) {
    prof->initial_candidates = cand_data.size();
    prof->seed_ms = stage_timer.ElapsedMs();
    stage_timer.Restart();
  }

  // --- DAG-graph DP refinement, Recurrence (1), alternating q_D^{-1}/q_D.
  // For q' = q_D^{-1}: children in q' are parents in q_D; the reverse
  // topological order of q' is the forward topological order of q_D.
  // Edge labels participate whenever either graph carries them: an
  // unlabeled query edge (label 0) then only matches label-0 data edges.
  // Removal compacts each vertex's segment in place (the segment start
  // never moves, only cand_size[u] shrinks).
  const bool check_edge_labels =
      dag.HasEdgeLabels() || data.HasNontrivialEdgeLabels();
  const std::vector<VertexId>& topo = dag.TopologicalOrder();
  std::vector<Label>& required_edge_label = scratch->required_edge_label;
  for (int step = 0; step < refinement_steps; ++step) {
    const bool use_reversed_dag = (step % 2 == 0);
    Stopwatch pass_timer;
    uint64_t removed = 0;
    for (uint32_t pos = 0; pos < n; ++pos) {
      if (stopped()) {
        commit_interrupted();
        return cs;
      }
      VertexId u = use_reversed_dag ? topo[pos] : topo[n - 1 - pos];
      const std::vector<VertexId>& dp_children =
          use_reversed_dag ? dag.Parents(u) : dag.Children(u);
      if (dp_children.empty()) continue;
      // Query edge labels toward each DP child (all zero when unlabeled).
      required_edge_label.assign(dp_children.size(), 0);
      if (dag.HasEdgeLabels()) {
        for (size_t c = 0; c < dp_children.size(); ++c) {
          required_edge_label[c] = query.EdgeLabelBetween(u, dp_children[c]);
        }
      }
      VertexId* cand = cand_data.data() + cand_offsets[u];
      uint32_t kept = 0;
      for (uint32_t i = 0; i < cand_size[u]; ++i) {
        VertexId v = cand[i];
        bool survives = true;
        for (size_t c = 0; c < dp_children.size(); ++c) {
          VertexId uc = dp_children[c];
          bool has_valid_neighbor = false;
          if (check_edge_labels) {
            Graph::NeighborSlice slice =
                data.NeighborsWithLabelAndEdges(v, dag.DataLabel(uc));
            for (size_t j = 0; j < slice.vertices.size(); ++j) {
              if (slice.edge_labels[j] == required_edge_label[c] &&
                  valid[uc].Test(slice.vertices[j])) {
                has_valid_neighbor = true;
                break;
              }
            }
          } else {
            for (VertexId vc :
                 data.NeighborsWithLabel(v, dag.DataLabel(uc))) {
              if (valid[uc].Test(vc)) {
                has_valid_neighbor = true;
                break;
              }
            }
          }
          if (!has_valid_neighbor) {
            survives = false;
            break;
          }
        }
        if (survives) {
          cand[kept++] = v;
        } else {
          valid[u].Clear(v);
          ++removed;
        }
      }
      cand_size[u] = kept;
    }
    if (removed > 0) ++cs.effective_refinements_;
    if (prof != nullptr) {
      prof->passes.push_back(obs::CsPassStats{static_cast<uint32_t>(step),
                                              use_reversed_dag, removed,
                                              pass_timer.ElapsedMs()});
    }
  }

  // --- Commit the surviving candidates to their final flat arrays.
  uint64_t total_candidates = 0;
  for (uint32_t u = 0; u < n; ++u) total_candidates += cand_size[u];
  uint64_t* final_offsets =
      AllocateFinal<uint64_t>(n + 1, arena, &cs.own_cand_offsets_);
  VertexId* final_cand = AllocateFinal<VertexId>(
      static_cast<size_t>(total_candidates), arena, &cs.own_cand_data_);
  uint64_t write = 0;
  for (uint32_t u = 0; u < n; ++u) {
    final_offsets[u] = write;
    const VertexId* seg = cand_data.data() + cand_offsets[u];
    std::copy(seg, seg + cand_size[u], final_cand + write);
    write += cand_size[u];
  }
  final_offsets[n] = write;
  cs.cand_offsets_ = final_offsets;
  cs.cand_data_ = final_cand;
  if (prof != nullptr) {
    prof->final_candidates = total_candidates;
    prof->refine_ms = stage_timer.ElapsedMs();
    stage_timer.Restart();
  }

  // --- Materialize the CS edges N^u_{uc}(v), staged as one flat target
  // buffer plus absolute offsets, then committed like the candidates.
  std::vector<uint64_t>& edge_seg_base = scratch->edge_seg_base;
  std::vector<uint64_t>& edge_offsets = scratch->edge_offsets;
  std::vector<uint32_t>& edge_targets = scratch->edge_targets;
  edge_seg_base.assign(dag.NumEdges(), 0);
  edge_offsets.clear();
  edge_targets.clear();
  std::vector<uint32_t>& cand_index = scratch->cand_index;
  cand_index.assign(data_n, 0);
  for (VertexId u : topo) {
    staging.Update(*scratch);
    if (stopped()) {
      commit_interrupted();
      return cs;
    }
    // Index map: data vertex -> candidate index within C(u).
    std::span<const VertexId> child_cand = cs.Candidates(u);
    for (uint32_t i = 0; i < child_cand.size(); ++i) {
      cand_index[child_cand[i]] = i;
    }
    Label child_label = dag.DataLabel(u);
    const std::vector<VertexId>& parents = dag.Parents(u);
    const std::vector<uint32_t>& edge_ids = dag.ParentEdgeIds(u);
    for (size_t pi = 0; pi < parents.size(); ++pi) {
      VertexId p = parents[pi];
      uint32_t edge_id = edge_ids[pi];
      edge_seg_base[edge_id] = edge_offsets.size();
      std::span<const VertexId> parent_cand = cs.Candidates(p);
      const Label required = dag.EdgeLabelOf(edge_id);
      for (uint32_t ip = 0; ip < parent_cand.size(); ++ip) {
        edge_offsets.push_back(edge_targets.size());
        if (check_edge_labels) {
          Graph::NeighborSlice slice =
              data.NeighborsWithLabelAndEdges(parent_cand[ip], child_label);
          for (size_t j = 0; j < slice.vertices.size(); ++j) {
            if (slice.edge_labels[j] == required &&
                valid[u].Test(slice.vertices[j])) {
              edge_targets.push_back(cand_index[slice.vertices[j]]);
            }
          }
        } else {
          for (VertexId vc :
               data.NeighborsWithLabel(parent_cand[ip], child_label)) {
            if (valid[u].Test(vc)) {
              edge_targets.push_back(cand_index[vc]);
            }
          }
        }
      }
      edge_offsets.push_back(edge_targets.size());
    }
  }
  uint64_t* final_seg_base = AllocateFinal<uint64_t>(
      edge_seg_base.size(), arena, &cs.own_edge_seg_base_);
  std::copy(edge_seg_base.begin(), edge_seg_base.end(), final_seg_base);
  uint64_t* final_edge_offsets = AllocateFinal<uint64_t>(
      edge_offsets.size(), arena, &cs.own_edge_offsets_);
  std::copy(edge_offsets.begin(), edge_offsets.end(), final_edge_offsets);
  uint32_t* final_targets = AllocateFinal<uint32_t>(
      edge_targets.size(), arena, &cs.own_edge_targets_);
  std::copy(edge_targets.begin(), edge_targets.end(), final_targets);
  cs.edge_seg_base_ = final_seg_base;
  cs.edge_offsets_ = final_edge_offsets;
  cs.edge_targets_ = final_targets;
  cs.num_edge_targets_ = edge_targets.size();
  if (prof != nullptr) {
    prof->edges_materialized = cs.TotalEdges();
    prof->edges_ms = stage_timer.ElapsedMs();
  }
  return cs;
}

}  // namespace daf
