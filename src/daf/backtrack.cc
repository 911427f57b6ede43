#include "daf/backtrack.h"

#include <algorithm>

#include "daf/steal.h"
#include "graph/graph.h"
#include "util/fault_inject.h"
#include "util/intersect.h"

namespace daf {

Backtracker::Backtracker(const Graph& query, const QueryDag& dag,
                         const CandidateSpace& cs, const WeightArray* weights,
                         uint32_t data_num_vertices, BacktrackScratch* scratch)
    : query_(query),
      dag_(dag),
      cs_(cs),
      weights_(weights),
      n_(query.NumVertices()),
      s_(scratch != nullptr ? scratch : &inline_scratch_),
      mapped_cand_idx_(s_->mapped_cand_idx),
      mapped_vertex_(s_->mapped_vertex),
      num_mapped_parents_(s_->num_mapped_parents),
      extendable_cands_(s_->extendable_cands),
      extendable_weight_(s_->extendable_weight),
      is_leaf_(s_->is_leaf),
      mapped_by_(s_->mapped_by),
      extendable_list_(s_->extendable_list),
      fs_stack_(s_->fs_stack),
      fs_empty_(s_->fs_empty),
      fs_union_(s_->fs_union),
      failed_classes_(s_->failed_classes),
      intersect_inputs_(s_->intersect_inputs),
      intersect_scratch_(s_->intersect_scratch),
      embedding_buffer_(s_->embedding_buffer),
      map_stack_(s_->map_stack),
      frames_(s_->frames) {
  s_->ResizeForQuery(n_, data_num_vertices);
  for (uint32_t u = 0; u < n_; ++u) is_leaf_[u] = query.degree(u) <= 1;
}

void Backtracker::InitRun(const BacktrackOptions& options) {
  options_ = options;
  stats_ = BacktrackStats{};
  stop_ = false;
  scheduler_ = options.scheduler;
  stop_condition_ =
      StopCondition(options.deadline, options.cancel, options.budget);
  stop_armed_ = stop_condition_.armed() ||
                static_cast<bool>(options.progress) || scheduler_ != nullptr ||
                (options.shared_count != nullptr && options.limit != 0);
  deadline_check_countdown_ = 0;
  profile_ = options.profile;
  intersect_stats_ = IntersectStats{};
  if (profile_ != nullptr) {
    profile_->Reset();
    // Depths 0..n_ inclusive: depth n_ holds the embedding-class leaves.
    profile_->depth_histogram.assign(n_ + 1, 0);
  }
  if (options_.progress) {
    run_timer_.Restart();
    next_progress_ms_ = options_.progress_interval_ms;
  }
  std::fill(mapped_cand_idx_.begin(), mapped_cand_idx_.end(), kNotMapped);
  std::fill(num_mapped_parents_.begin(), num_mapped_parents_.end(), 0u);
  map_stack_.clear();
  frames_.clear();
}

void Backtracker::SeedRoots() {
  // A single-leaf query (one vertex, or one edge where everything is a
  // leaf) still needs a selectable vertex, so leaf deferral is a preference,
  // not a filter (see SelectExtendable).

  // Seed every component root as extendable: C_M(r) = C(r). (Connected
  // queries have exactly one root; disconnected ones get one per
  // component.)
  extendable_list_.clear();
  for (VertexId root : dag_.Roots()) {
    auto& root_cands = extendable_cands_[root];
    root_cands.resize(cs_.NumCandidates(root));
    for (uint32_t i = 0; i < root_cands.size(); ++i) root_cands[i] = i;
    if (options_.order == MatchOrder::kPathSize) {
      uint64_t w = 0;
      for (uint32_t i = 0; i < root_cands.size(); ++i) {
        w += weights_->Weight(root, i);
      }
      extendable_weight_[root] = w;
    } else {
      extendable_weight_[root] = root_cands.size();
    }
    extendable_list_.push_back(root);
  }
}

BacktrackStats Backtracker::Run(const BacktrackOptions& options) {
  InitRun(options);
  SeedRoots();
  Recurse(0);
  FlushIntersectStats();
  return stats_;
}

BacktrackStats Backtracker::RunWorker(const BacktrackOptions& options) {
  InitRun(options);
  // Roots are seeded once per worker: task execution rebuilds the mapped
  // state around them but never disturbs the root candidate lists.
  SeedRoots();
  while (!stop_) {
    std::optional<SubtreeTask> task = scheduler_->GetTask(options_.thread_id);
    if (!task.has_value()) break;
    ExecuteTask(*task);
  }
  // Wake the other workers promptly when this one hit the limit, the
  // deadline, a cancel request, or a consumer stop.
  if (stop_) scheduler_->RequestStop();
  FlushIntersectStats();
  return stats_;
}

void Backtracker::FlushIntersectStats() {
  if (profile_ == nullptr) return;
  profile_->intersect_merge += intersect_stats_.merge;
  profile_->intersect_gallop += intersect_stats_.gallop;
  profile_->intersect_bitmap += intersect_stats_.bitmap;
}

void Backtracker::ExecuteTask(const SubtreeTask& task) {
  for (const auto& [u, cand_idx] : task.prefix) Map(u, cand_idx);
  const uint32_t depth = static_cast<uint32_t>(task.prefix.size());
  VertexId u = task.u;
  uint32_t begin = task.begin;
  uint32_t end = task.end;
  if (u == kInvalidVertex) {
    // Seed task: own the whole range of the first extendable vertex. This
    // is the one search-tree node no donor has counted yet.
    ++stats_.recursive_calls;
    if (profile_ != nullptr) CountNode(depth);
    u = SelectExtendable();
    begin = 0;
    end = static_cast<uint32_t>(extendable_cands_[u].size());
  }
  if (end > begin) EnumerateCandidates(u, depth, begin, end);
  for (size_t i = task.prefix.size(); i-- > 0;) Unmap(task.prefix[i].first);
}

void Backtracker::TryDonate() {
  // Simulated allocation failure while packaging a donation: the split is
  // abandoned and this worker stops as resource-exhausted. Its open frames
  // unwind normally, so partial counts stay valid.
  if (FAULT_POINT(steal_donate)) {
    stats_.resource_exhausted = true;
    stop_ = true;
    return;
  }
  const uint32_t threshold = std::max(options_.split_threshold, 1u);
  for (SearchFrame& frame : frames_) {
    const uint32_t remaining = frame.end - frame.next;
    if (remaining < threshold) continue;
    // Keep the lower half of the unclaimed range, donate the upper half
    // (at least one candidate). The donated subtree re-derives its
    // extendable candidates by replaying the prefix, so the task only
    // carries the mapping pairs and the index range.
    const uint32_t mid = frame.next + remaining / 2;
    SubtreeTask task;
    task.u = frame.u;
    task.begin = mid;
    task.end = frame.end;
    task.prefix.reserve(frame.depth);
    for (uint32_t d = 0; d < frame.depth; ++d) {
      const VertexId v = map_stack_[d];
      task.prefix.emplace_back(v, mapped_cand_idx_[v]);
    }
    frame.end = mid;
    frame.donated = true;
    scheduler_->Donate(options_.thread_id, std::move(task));
    return;  // one donation per checkpoint; shallowest frame wins
  }
}

bool Backtracker::ShouldStop() {
  if (stop_) return true;
  if (stop_armed_ && deadline_check_countdown_-- == 0) {
    deadline_check_countdown_ = 4096;
    switch (stop_condition_.Check()) {
      case StopCause::kDeadline:
        stats_.timed_out = true;
        stop_ = true;
        return true;
      case StopCause::kCancel:
        stats_.cancelled = true;
        stop_ = true;
        return true;
      case StopCause::kMemoryExhausted:
        stats_.resource_exhausted = true;
        stop_ = true;
        return true;
      case StopCause::kNone:
        break;
    }
    if (scheduler_ != nullptr && scheduler_->stop_requested()) {
      // Another worker hit a terminal condition; its stats carry the cause.
      stop_ = true;
      return true;
    }
    if (options_.shared_count != nullptr && options_.limit != 0 &&
        options_.shared_count->load(std::memory_order_relaxed) >=
            options_.limit) {
      // The shared limit filled up while this worker searched a barren
      // region; stop instead of finishing a range that can contribute
      // nothing countable.
      stats_.limit_reached = true;
      stop_ = true;
      return true;
    }
    if (options_.progress) ReportProgress();
  }
  return false;
}

void Backtracker::ReportProgress() {
  const double elapsed = run_timer_.ElapsedMs();
  if (elapsed < next_progress_ms_) return;
  next_progress_ms_ = elapsed + options_.progress_interval_ms;
  obs::ProgressSnapshot snapshot;
  snapshot.embeddings = stats_.embeddings;
  snapshot.recursive_calls = stats_.recursive_calls;
  snapshot.elapsed_ms = elapsed;
  snapshot.embeddings_per_sec =
      elapsed > 0 ? 1000.0 * static_cast<double>(stats_.embeddings) / elapsed
                  : 0;
  snapshot.thread = options_.thread_id;
  options_.progress(snapshot);
}

void Backtracker::ReportEmbedding() {
  if (options_.shared_count != nullptr && options_.limit != 0) {
    // Claim a slot under the shared limit *before* counting or delivering:
    // a claim past the limit is dropped entirely, so the workers' counts
    // sum to exactly min(limit, total embeddings) — parallel runs report
    // the same count as single-threaded ones, never limit + in-flight.
    const uint64_t prev =
        options_.shared_count->fetch_add(1, std::memory_order_relaxed);
    if (prev >= options_.limit) {
      stats_.limit_reached = true;
      stop_ = true;
      return;
    }
    ++stats_.embeddings;
    if (options_.callback) {
      for (uint32_t u = 0; u < n_; ++u) {
        embedding_buffer_[u] = mapped_vertex_[u];
      }
      if (!options_.callback(embedding_buffer_)) {
        stats_.callback_stopped = true;
        stop_ = true;
      }
    }
    if (prev + 1 >= options_.limit) {
      stats_.limit_reached = true;
      stop_ = true;
    }
    return;
  }
  ++stats_.embeddings;
  if (options_.callback) {
    for (uint32_t u = 0; u < n_; ++u) embedding_buffer_[u] = mapped_vertex_[u];
    if (!options_.callback(embedding_buffer_)) {
      stats_.callback_stopped = true;
      stop_ = true;
    }
  }
  if (options_.limit != 0 && stats_.embeddings >= options_.limit) {
    stats_.limit_reached = true;
    stop_ = true;
  }
}

VertexId Backtracker::SelectExtendable() const {
  VertexId best = kInvalidVertex;
  uint64_t best_weight = 0;
  bool best_is_leaf = true;
  for (VertexId u : extendable_list_) {
    if (mapped_cand_idx_[u] != kNotMapped) continue;
    bool leaf = options_.leaf_decomposition && is_leaf_[u];
    uint64_t w = extendable_weight_[u];
    bool better;
    if (best == kInvalidVertex) {
      better = true;
    } else if (leaf != best_is_leaf) {
      better = !leaf;  // non-leaves strictly before leaves
    } else {
      better = w < best_weight || (w == best_weight && u < best);
    }
    if (better) {
      best = u;
      best_weight = w;
      best_is_leaf = leaf;
    }
  }
  return best;
}

void Backtracker::ComputeExtendableCandidates(VertexId u) {
  const std::vector<VertexId>& parents = dag_.Parents(u);
  const std::vector<uint32_t>& edge_ids = dag_.ParentEdgeIds(u);
  auto& out = extendable_cands_[u];
  // Intersect the parents' CS adjacency lists (Definition 5.2). Lists are
  // sorted candidate indices into C(u); IntersectKWay orders them by size
  // and picks a kernel per pair — gallop when one side dwarfs the other
  // (hub parents), merge at comparable sizes, or one blocked-bitmap
  // pass over [0, |C(u)|) when the smallest list is dense in it.
  if (parents.size() == 1) {
    std::span<const uint32_t> first =
        cs_.EdgeNeighbors(edge_ids[0], mapped_cand_idx_[parents[0]]);
    out.assign(first.begin(), first.end());
  } else {
    intersect_inputs_.resize(parents.size());
    for (size_t pi = 0; pi < parents.size(); ++pi) {
      std::span<const uint32_t> list =
          cs_.EdgeNeighbors(edge_ids[pi], mapped_cand_idx_[parents[pi]]);
      intersect_inputs_[pi] = KWayList{list.data(), list.size()};
    }
    IntersectKWay(intersect_inputs_.data(), intersect_inputs_.size(),
                  cs_.NumCandidates(u), &intersect_scratch_, &out,
                  profile_ != nullptr ? &intersect_stats_ : nullptr);
  }
  if (options_.order == MatchOrder::kPathSize) {
    uint64_t w = 0;
    for (uint32_t idx : out) w += weights_->Weight(u, idx);
    extendable_weight_[u] = w;
  } else {
    extendable_weight_[u] = out.size();
  }
}

void Backtracker::Map(VertexId u, uint32_t cand_idx) {
  mapped_cand_idx_[u] = cand_idx;
  VertexId v = cs_.CandidateVertex(u, cand_idx);
  mapped_vertex_[u] = v;
  // mapped_by_ backs the injectivity (conflict) checks only; homomorphism
  // runs allow several query vertices on one data vertex.
  if (options_.injective) mapped_by_[v] = u;
  if (scheduler_ != nullptr) map_stack_.push_back(u);
  for (VertexId c : dag_.Children(u)) {
    if (++num_mapped_parents_[c] ==
        static_cast<uint32_t>(dag_.Parents(c).size())) {
      extendable_list_.push_back(c);
      ComputeExtendableCandidates(c);
    }
  }
}

void Backtracker::Unmap(VertexId u) {
  const std::vector<VertexId>& children = dag_.Children(u);
  for (size_t i = children.size(); i-- > 0;) {
    VertexId c = children[i];
    if (num_mapped_parents_[c]-- ==
        static_cast<uint32_t>(dag_.Parents(c).size())) {
      // LIFO discipline: vertices that became extendable because of this
      // mapping are at the tail of the list.
      extendable_list_.pop_back();
    }
  }
  if (scheduler_ != nullptr) map_stack_.pop_back();
  if (options_.injective) mapped_by_[mapped_vertex_[u]] = kInvalidVertex;
  mapped_vertex_[u] = kInvalidVertex;
  mapped_cand_idx_[u] = kNotMapped;
}

void Backtracker::Recurse(uint32_t depth) {
  ++stats_.recursive_calls;
  if (profile_ != nullptr) CountNode(depth);
  if (depth == n_) {
    ReportEmbedding();
    fs_empty_[depth] = true;  // embedding-class leaf: F = ∅
    return;
  }
  if (ShouldStop()) {
    fs_empty_[depth] = true;
    return;
  }

  const VertexId u = SelectExtendable();
  const std::vector<uint32_t>& cands = extendable_cands_[u];

  if (cands.empty()) {
    // Emptyset-class leaf: F = anc(u).
    if (profile_ != nullptr) ++profile_->empty_candidate_prunes;
    if (options_.use_failing_sets) {
      fs_stack_[depth].Assign(dag_.Ancestors(u));
      fs_empty_[depth] = false;
    }
    return;
  }

  EnumerateCandidates(u, depth, 0, static_cast<uint32_t>(cands.size()));
}

void Backtracker::EnumerateCandidates(VertexId u, uint32_t depth,
                                      uint32_t begin, uint32_t end) {
  const std::vector<uint32_t>& cands = extendable_cands_[u];
  const bool failing = options_.use_failing_sets;

  Bitset& union_fs = fs_union_[depth];
  if (failing) union_fs.ClearAll();
  bool any_child_empty = false;

  const bool boost = options_.equivalence != nullptr;
  std::vector<FailedClass>& failed = failed_classes_[depth];
  if (boost) failed.clear();

  const bool at_root = (depth == 0 && options_.root_cursor != nullptr);
  const bool stealing = scheduler_ != nullptr;
  size_t frame_index = 0;
  if (stealing) {
    frame_index = frames_.size();
    frames_.push_back(SearchFrame{u, depth, begin, end, false});
  }
  uint32_t pos = begin;
  // Case 2.1: a child's failing set excluded u, so the remaining siblings
  // (claimed, donated, or root-cursor-pending) are all redundant and the
  // child's certificate propagates as this node's.
  bool pruned_rest = false;
  while (true) {
    uint32_t list_index;
    uint32_t range_end = end;
    if (at_root) {
      list_index = options_.root_cursor->fetch_add(1);
      range_end = static_cast<uint32_t>(cands.size());
      if (list_index >= range_end) break;
    } else if (stealing) {
      if (scheduler_->WantsWork()) TryDonate();
      SearchFrame& frame = frames_[frame_index];
      range_end = frame.end;  // donation may have moved it down
      if (frame.next >= range_end) break;
      list_index = frame.next++;
    } else {
      if (pos >= range_end) break;
      list_index = pos++;
    }
    const uint32_t cand_idx = cands[list_index];
    const VertexId v = cs_.CandidateVertex(u, cand_idx);

    if (ShouldStop()) {
      any_child_empty = true;
      break;
    }

    if (options_.injective && mapped_by_[v] != kInvalidVertex) {
      // Conflict-class leaf: F = anc(u) ∪ anc(u') where u' holds v.
      ++stats_.recursive_calls;
      if (profile_ != nullptr) {
        // The conflict counts as a search-tree node one level down, so the
        // depth histogram keeps summing to recursive_calls.
        CountNode(depth + 1);
        ++profile_->conflict_prunes;
      }
      if (failing) {
        union_fs.UnionWith(dag_.Ancestors(u));
        union_fs.UnionWith(dag_.Ancestors(mapped_by_[v]));
      }
      continue;
    }

    if (boost) {
      // DAF-Boost skip: a candidate equivalent to an exhausted, embedding-
      // free sibling cannot succeed either (the two subtrees are isomorphic
      // under the swap of the equivalent vertices).
      const uint32_t cls = options_.equivalence->ClassOf(v);
      bool skipped = false;
      for (const FailedClass& fc : failed) {
        if (fc.class_id == cls) {
          if (failing) union_fs.UnionWith(fc.failing_set);
          skipped = true;
          break;
        }
      }
      if (skipped) {
        if (profile_ != nullptr) ++profile_->boost_skips;
        continue;
      }
    }

    const uint64_t embeddings_before = stats_.embeddings;
    Map(u, cand_idx);
    Recurse(depth + 1);
    Unmap(u);

    if (stop_) {
      any_child_empty = true;
      break;
    }

    const bool child_found_embedding = stats_.embeddings > embeddings_before;
    if (failing) {
      if (fs_empty_[depth + 1]) {
        any_child_empty = true;  // Case 1: F_M = ∅
      } else if (!fs_stack_[depth + 1].Test(u)) {
        // Case 2.1 and Lemma 6.1: every remaining sibling is redundant.
        if (profile_ != nullptr) {
          profile_->failing_set_skips += range_end - (list_index + 1);
        }
        fs_stack_[depth].Assign(fs_stack_[depth + 1]);
        fs_empty_[depth] = false;
        pruned_rest = true;
        break;
      } else {
        union_fs.UnionWith(fs_stack_[depth + 1]);
      }
    }
    if (boost && !child_found_embedding &&
        options_.equivalence->ClassSize(options_.equivalence->ClassOf(v)) >
            1) {
      FailedClass fc;
      fc.class_id = options_.equivalence->ClassOf(v);
      if (failing && !fs_empty_[depth + 1]) {
        fc.failing_set = fs_stack_[depth + 1];
      } else if (failing) {
        fc.failing_set.Resize(n_);  // empty contribution
      }
      failed.push_back(std::move(fc));
    }
  }

  bool donated = false;
  if (stealing) {
    donated = frames_[frame_index].donated;
    frames_.pop_back();
  }
  if (pruned_rest) return;  // certificate already assigned (valid even
                            // when part of the range was donated: Lemma
                            // 6.1 needs only the one fully-searched child)

  if (failing) {
    if (any_child_empty || donated) {
      // A donated frame did not compute all of its children, so the Case
      // 2.2 union would certify emptiness of work it never did; report
      // F = ∅ instead (prunes nothing upward — always sound).
      fs_empty_[depth] = true;
    } else {
      fs_stack_[depth].Assign(union_fs);  // Case 2.2: union of children
      fs_empty_[depth] = false;
    }
  }
}

}  // namespace daf
