#ifndef DAF_GRAPH_SEED_BUCKET_H_
#define DAF_GRAPH_SEED_BUCKET_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace daf {

/// One vertex of a seeding bucket: everything the local filters of
/// C_ini(u) read (degree, MND, NLF), packed so that seeding a query vertex
/// is one contiguous scan.
struct SeedEntry {
  VertexId id = 0;
  uint32_t degree = 0;
  uint32_t max_neighbor_degree = 0;
  uint32_t run_begin = 0;  // first of this vertex's runs in SeedBucket::runs
  uint64_t signature = 0;  // bit (l & 63) set for every neighbor label l
};

/// The NLF value of one neighbor label at one vertex.
struct NlfRun {
  Label label = 0;
  uint32_t count = 0;
};

/// The seeding data of one label of a graph (Graph::SeedBucketOf).
///
/// `entries` lists the label's vertices in id order, so candidate sets
/// seeded from it come out ascending. `runs` holds each vertex's
/// (neighbor label, count) runs, ascending by label, back to back in entry
/// order. `degrees_desc` holds the same vertices' degrees sorted
/// descending, so |C_ini(u)| is one binary search.
///
/// A signature is a necessary condition for NLF: a vertex with every
/// required neighbor label has every required bit. With more than 64
/// labels the bits collide, so survivors still run the exact run merge.
struct SeedBucket {
  std::vector<SeedEntry> entries;
  std::vector<NlfRun> runs;
  std::vector<uint32_t> degrees_desc;

  /// Builds label l's bucket of g: one pass over the adjacency of l's
  /// vertices (adjacency is (label, id)-sorted, so runs fall out in order).
  static SeedBucket Build(const Graph& g, Label l);

  /// The runs of entries[i].
  std::span<const NlfRun> Runs(size_t i) const {
    const uint32_t end = i + 1 < entries.size()
                             ? entries[i + 1].run_begin
                             : static_cast<uint32_t>(runs.size());
    return {runs.data() + entries[i].run_begin, end - entries[i].run_begin};
  }

  /// Number of the label's vertices with degree >= d.
  uint32_t CountWithDegreeAtLeast(uint32_t d) const {
    return static_cast<uint32_t>(
        std::partition_point(degrees_desc.begin(), degrees_desc.end(),
                             [d](uint32_t x) { return x >= d; }) -
        degrees_desc.begin());
  }
};

}  // namespace daf

#endif  // DAF_GRAPH_SEED_BUCKET_H_
