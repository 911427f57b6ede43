#include "obs/metrics.h"

#include <algorithm>

namespace daf::obs {

uint64_t BacktrackProfile::HistogramTotal() const {
  uint64_t total = 0;
  for (uint64_t c : depth_histogram) total += c;
  return total;
}

void BacktrackProfile::MergeFrom(const BacktrackProfile& other) {
  empty_candidate_prunes += other.empty_candidate_prunes;
  conflict_prunes += other.conflict_prunes;
  failing_set_skips += other.failing_set_skips;
  boost_skips += other.boost_skips;
  intersect_merge += other.intersect_merge;
  intersect_gallop += other.intersect_gallop;
  intersect_bitmap += other.intersect_bitmap;
  peak_depth = std::max(peak_depth, other.peak_depth);
  if (depth_histogram.size() < other.depth_histogram.size()) {
    depth_histogram.resize(other.depth_histogram.size(), 0);
  }
  for (size_t d = 0; d < other.depth_histogram.size(); ++d) {
    depth_histogram[d] += other.depth_histogram[d];
  }
}

void SearchProfile::Reset() {
  dag_build_ms = 0;
  cs_build_ms = 0;
  weights_ms = 0;
  search_ms = 0;
  cs.Reset();
  memory.Reset();
  backtrack.Reset();
  thread_profiles.clear();
  parallel.Reset();
  threads = 1;
}

}  // namespace daf::obs
