#ifndef DAF_UTIL_INTERSECT_H_
#define DAF_UTIL_INTERSECT_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace daf {

/// Size ratio beyond which the dispatcher switches from the merge to the
/// galloping probe (one exponential+binary search per short-side element).
/// Below it sequential access wins; above it the O(short * log(long)) probe
/// does. bench_micro's kernel matrix measures the crossover.
inline constexpr size_t kGallopRatio = 16;

/// The blocked-bitmap kernel activates when the smallest input covers at
/// least 1/kBitmapDensityInv of the universe: at that density the
/// word-parallel AND amortizes the two bitmap builds.
inline constexpr size_t kBitmapDensityInv = 16;

/// Per-thread kernel-selection counters, surfaced through
/// obs::BacktrackProfile (merge/gallop/bitmap hits per search).
struct IntersectStats {
  uint64_t merge = 0;   // scalar merge scans
  uint64_t gallop = 0;  // galloping probes (skewed sizes)
  uint64_t bitmap = 0;  // blocked-bitmap k-way calls
};

/// The host's x86 vector tier. No kernel dispatches on it; it only
/// fingerprints the host in benchmark records.
enum class SimdLevel : uint8_t { kNone, kSse, kAvx2 };

inline SimdLevel DetectedSimdLevel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  if (__builtin_cpu_supports("ssse3")) return SimdLevel::kSse;
#endif
  return SimdLevel::kNone;
}

/// Index of the first element of sorted [first, first + n) that is >= key,
/// or n when none is. Branchless: the loop body compiles to a conditional
/// move, so the probe pays no mispredictions on random candidate data.
inline size_t BranchlessLowerBound(const uint32_t* first, size_t n,
                                   uint32_t key) {
  size_t lo = 0;
  while (n > 1) {
    const size_t half = n / 2;
    lo += (first[lo + half - 1] < key) ? half : 0;
    n -= half;
  }
  return (n == 1 && first[lo] < key) ? lo + 1 : lo;
}

/// Scalar merge intersection of two sorted unique ranges into `out`
/// (capacity >= min(na, nb); must not alias the inputs). Returns the number
/// of elements written. At comparable sizes the advance direction is a
/// well-predicted branch, so this speculative form beats a branchless
/// variant (which serializes the load -> compare -> advance chain).
inline size_t IntersectMergeKernel(const uint32_t* a, size_t na,
                                   const uint32_t* b, size_t nb,
                                   uint32_t* out) {
  size_t i = 0, j = 0, count = 0;
  while (i < na && j < nb) {
    const uint32_t x = a[i], y = b[j];
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      out[count++] = x;
      ++i;
      ++j;
    }
  }
  return count;
}

/// Galloping intersection: for each element of the short side, advance in
/// the long side by doubling steps, then finish with a branchless binary
/// search inside the overshot window. O(ns * log(nl)) with a hot prefix, vs
/// O(ns + nl) for the merge. `out` needs capacity >= ns and must not alias
/// `longer` (aliasing `shorter` is tolerated but not part of the contract).
inline size_t IntersectGallopKernel(const uint32_t* shorter, size_t ns,
                                    const uint32_t* longer, size_t nl,
                                    uint32_t* out) {
  size_t base = 0;  // every element of longer before `base` is < current key
  size_t count = 0;
  for (size_t i = 0; i < ns && base < nl; ++i) {
    const uint32_t key = shorter[i];
    if (longer[base] < key) {
      // Exponential probe: double `bound` until longer[base + bound] is no
      // longer < key (or the array ends). The previous probe at bound/2 was
      // < key, so the lower bound lies in (base + bound/2, base + bound].
      size_t bound = 1;
      while (base + bound < nl && longer[base + bound] < key) bound <<= 1;
      const size_t window_begin = base + (bound >> 1) + 1;
      const size_t window_end = std::min(base + bound + 1, nl);
      base = window_begin +
             BranchlessLowerBound(longer + window_begin,
                                  window_end - window_begin, key);
    }
    if (base < nl && longer[base] == key) {
      out[count++] = key;
      ++base;
    }
  }
  return count;
}

/// Reusable word buffers of the blocked-bitmap kernel (they keep their
/// capacity across calls; a MatchContext owns one per worker).
struct BitmapScratch {
  std::vector<uint64_t> acc;  // running intersection bitmap
  std::vector<uint64_t> cur;  // bitmap of the list currently ANDed in
};

/// Blocked-bitmap k-way intersection of `k` sorted unique lists whose
/// values all lie in [0, universe): rasterize the first list, AND in each
/// later one (word-parallel), then re-extract sorted indices with ctz
/// scans. O(sum |lists| + (k+1) * universe/64) word ops — the win over the
/// merge comes from handling 64 candidates per AND when the lists are dense
/// in the universe. `out` needs capacity >= |lists[0]| (pass the smallest
/// list first to bound it tightest). Returns the number written.
inline size_t IntersectBitmapKernel(const uint32_t* const* lists,
                                    const size_t* sizes, size_t k,
                                    uint32_t universe, BitmapScratch* scratch,
                                    uint32_t* out) {
  const size_t words = (static_cast<size_t>(universe) + 63) / 64;
  if (k == 0 || words == 0) return 0;
  std::vector<uint64_t>& acc = scratch->acc;
  std::vector<uint64_t>& cur = scratch->cur;
  acc.assign(words, 0);
  for (size_t i = 0; i < sizes[0]; ++i) {
    const uint32_t x = lists[0][i];
    acc[x >> 6] |= uint64_t{1} << (x & 63);
  }
  for (size_t l = 1; l < k; ++l) {
    cur.assign(words, 0);
    for (size_t i = 0; i < sizes[l]; ++i) {
      const uint32_t x = lists[l][i];
      cur[x >> 6] |= uint64_t{1} << (x & 63);
    }
    for (size_t w = 0; w < words; ++w) acc[w] &= cur[w];
  }
  size_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits = acc[w];
    const uint32_t base = static_cast<uint32_t>(w << 6);
    while (bits != 0) {
      out[count++] = base + static_cast<uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
    }
  }
  return count;
}

/// Two-way dispatch: gallop past kGallopRatio (the hub-parent regime),
/// scalar merge otherwise. `out` needs capacity >= min(na, nb) and must not
/// alias the inputs. `stats` (optional) counts which kernel ran.
inline size_t IntersectDispatch(const uint32_t* a, size_t na,
                                const uint32_t* b, size_t nb, uint32_t* out,
                                IntersectStats* stats = nullptr) {
  if (na == 0 || nb == 0) return 0;
  if (na > nb * kGallopRatio) {
    if (stats != nullptr) ++stats->gallop;
    return IntersectGallopKernel(b, nb, a, na, out);
  }
  if (nb > na * kGallopRatio) {
    if (stats != nullptr) ++stats->gallop;
    return IntersectGallopKernel(a, na, b, nb, out);
  }
  if (stats != nullptr) ++stats->merge;
  return IntersectMergeKernel(a, na, b, nb, out);
}

/// Intersects two sorted unique ranges into `*out` (overwritten), picking a
/// kernel per IntersectDispatch. `out` must not alias the inputs (asserted
/// in debug builds — an aliasing call would read through a buffer the
/// resize below may reallocate); it is sized once up front, so the kernels
/// write raw slots instead of push_back'ing through a back_inserter.
inline void IntersectSorted(const uint32_t* a, size_t na, const uint32_t* b,
                            size_t nb, std::vector<uint32_t>* out,
                            IntersectStats* stats = nullptr) {
  if (na == 0 || nb == 0) {
    out->clear();
    return;
  }
  assert(out->data() != a && out->data() != b &&
         "IntersectSorted output must not alias an input");
  out->resize(std::min(na, nb));
  out->resize(IntersectDispatch(a, na, b, nb, out->data(), stats));
}

/// One input of a k-way intersection (a view into a CS adjacency segment).
struct KWayList {
  const uint32_t* data = nullptr;
  size_t size = 0;
};

/// Reusable buffers of IntersectKWay (capacity retained across calls).
struct KWayScratch {
  BitmapScratch bitmap;
  std::vector<KWayList> order;        // inputs sorted by ascending size
  std::vector<const uint32_t*> ptrs;  // bitmap-kernel argument marshalling
  std::vector<size_t> sizes;
  std::vector<uint32_t> tmp;  // ping-pong buffer of the pairwise chain
};

/// Intersects `k` sorted unique lists of indices in [0, universe) into
/// `*out` (overwritten). Orders the inputs by ascending size, then either
/// runs the blocked-bitmap kernel (when the smallest list is dense in the
/// universe — the dense-CS-segment regime) or folds the lists pairwise
/// smallest-first through IntersectDispatch, ping-ponging between `*out`
/// and the scratch so no kernel writes a buffer it is reading. `out` must
/// not alias any input or the scratch.
inline void IntersectKWay(const KWayList* lists, size_t k, uint32_t universe,
                          KWayScratch* scratch, std::vector<uint32_t>* out,
                          IntersectStats* stats = nullptr) {
  out->clear();
  if (k == 0) return;
  std::vector<KWayList>& order = scratch->order;
  order.assign(lists, lists + k);
  std::sort(order.begin(), order.end(),
            [](const KWayList& x, const KWayList& y) { return x.size < y.size; });
  const size_t n_min = order[0].size;
  if (n_min == 0) return;
  if (k == 1) {
    out->assign(order[0].data, order[0].data + n_min);
    return;
  }
  if (universe > 0 && n_min * kBitmapDensityInv >= universe) {
    scratch->ptrs.resize(k);
    scratch->sizes.resize(k);
    for (size_t i = 0; i < k; ++i) {
      scratch->ptrs[i] = order[i].data;
      scratch->sizes[i] = order[i].size;
    }
    out->resize(n_min);
    out->resize(IntersectBitmapKernel(scratch->ptrs.data(),
                                      scratch->sizes.data(), k, universe,
                                      &scratch->bitmap, out->data()));
    if (stats != nullptr) ++stats->bitmap;
    return;
  }
  // Pairwise chain, smallest pair first so intermediate results shrink as
  // fast as possible. The final step must land in *out, so the starting
  // target alternates with the parity of k - 1.
  std::vector<uint32_t>* bufs[2] = {out, &scratch->tmp};
  int target = (k % 2 == 0) ? 0 : 1;
  const uint32_t* cur = order[0].data;
  size_t ncur = n_min;
  for (size_t i = 1; i < k; ++i) {
    std::vector<uint32_t>* dst = bufs[target];
    dst->resize(std::min(ncur, order[i].size));
    ncur = IntersectDispatch(cur, ncur, order[i].data, order[i].size,
                             dst->data(), stats);
    dst->resize(ncur);
    if (ncur == 0) {
      out->clear();
      return;
    }
    cur = dst->data();
    target ^= 1;
  }
  // The loop's last write targeted *out by the parity choice above.
}

}  // namespace daf

#endif  // DAF_UTIL_INTERSECT_H_
