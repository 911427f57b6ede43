#ifndef DAF_DYN_DELTA_ENUMERATE_H_
#define DAF_DYN_DELTA_ENUMERATE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "daf/dynamic_cs.h"
#include "dyn/delta_graph.h"
#include "dyn/update_batch.h"
#include "graph/graph.h"
#include "util/stop.h"

namespace daf::dyn {

struct DeltaEnumOptions {
  /// Optional early-exit predicate (not owned), polled periodically.
  const StopCondition* stop = nullptr;
  /// Cap on reported embeddings (0 = unlimited). Hitting it clears
  /// `complete`.
  uint64_t limit = 0;
};

struct DeltaEnumResult {
  /// False when `stop` fired or `limit` was hit — the embedding list is
  /// then a prefix, not the full delta.
  bool complete = true;
  uint64_t recursive_calls = 0;
  /// Each embedding maps query vertex u to embedding[u].
  std::vector<std::vector<VertexId>> embeddings;
};

/// Delta-driven re-enumeration for one standing query: instead of
/// re-matching the whole graph after a batch, every embedding in the delta
/// must touch a net-changed edge, so enumeration is *seeded* there — one
/// query edge pinned onto each changed data edge (both orientations), the
/// rest of the query matched by DFS outward from the pinned pair, pruned
/// by the DynamicCandidateSpace bitmaps. Each extension scans the pivot's
/// label-grouped neighbor slice in a CSR snapshot (looked up by original
/// label, as DynamicCandidateSpace does) and tests the other mapped
/// neighbors with Graph::HasEdgeWithLabel.
///
/// Exactness (net-batch semantics):
///   * `Created` enumerates embeddings of the *post-batch* graph that use
///     at least one net-inserted edge — exactly the embeddings the batch
///     created (an embedding using no inserted edge existed before; one
///     using any inserted edge could not have).
///   * `Destroyed` enumerates embeddings of the *pre-batch* graph that use
///     at least one net-removed edge — exactly the embeddings the batch
///     destroyed. It therefore reads the pre-batch snapshot and must run
///     before DynamicCandidateSpace::Apply, against the pre-batch bitmaps.
///   An edge label change appears as remove(old)+insert(new), destroying
///   and creating accordingly. Vertex removals were expanded into
///   incident-edge removals by Normalize; new/removed vertices only
///   matter directly for single-vertex queries, which are seeded on the
///   vertex lists instead.
///
/// Duplicate suppression (an embedding may use several changed edges, and
/// under homomorphism several query edges may map onto one data edge): an
/// embedding M found from seed (changed edge i, query edge qe, orientation
/// o) is reported iff i is the *minimum* changed-edge index used by M and
/// (qe, o) is lexicographically minimal among the query-edge/orientation
/// pairs of M that map onto edge i — each delta embedding is counted from
/// exactly one seed.
class DeltaEnumerator {
 public:
  /// `cs` must outlive this object and stay in sync with the snapshot
  /// passed to Created/Destroyed (post-batch bitmaps for Created,
  /// pre-batch bitmaps for Destroyed).
  DeltaEnumerator(const Graph& query, const DynamicCandidateSpace& cs);

  /// Embeddings created by the net batch: `g` is the post-batch snapshot.
  /// Call after DynamicCandidateSpace::Apply.
  DeltaEnumResult Created(const Graph& g, const NormalizedBatch& net,
                          const DeltaEnumOptions& options) const;

  /// Embeddings destroyed by the net batch (from DeltaGraph::Normalize):
  /// `g` is the pre-batch snapshot.
  DeltaEnumResult Destroyed(const Graph& g, const NormalizedBatch& net,
                            const DeltaEnumOptions& options) const;

  // DeltaGraph forwarding overloads: see DynamicCandidateSpace's.
  DeltaEnumResult Created(const DeltaGraph& dg, const NormalizedBatch& net,
                          const DeltaEnumOptions& options) const {
    return Created(*dg.Materialize(), net, options);
  }
  DeltaEnumResult Destroyed(const DeltaGraph& dg, const NormalizedBatch& net,
                            const DeltaEnumOptions& options) const {
    return Destroyed(*dg.Materialize(), net, options);
  }

 private:
  struct SeedOrder {
    std::vector<VertexId> order;  // BFS order; order[0], order[1] = edge
    std::vector<uint32_t> pos;    // inverse of order
  };

  /// Shared engine: `changed` are the seed data edges (with the labels
  /// they carry in `g`), `changed_vertices` seeds single-vertex queries.
  DeltaEnumResult Enumerate(const Graph& g,
                            const std::vector<EdgeUpdate>& changed,
                            const std::vector<VertexId>& changed_vertices,
                            const DeltaEnumOptions& options) const;

  const Graph& query_;
  const DynamicCandidateSpace& cs_;
  std::vector<std::pair<Edge, Label>> query_edges_;  // canonical, u < v
  std::vector<SeedOrder> seed_orders_;  // one per query edge
};

}  // namespace daf::dyn

#endif  // DAF_DYN_DELTA_ENUMERATE_H_
