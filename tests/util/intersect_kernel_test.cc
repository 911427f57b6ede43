// Randomized differential tests of the full intersection kernel matrix
// (scalar merge, gallop, blocked bitmap, k-way dispatch) against a trivial
// std::set_intersection reference, over seeded input shapes: empty,
// disjoint, identical, dense runs, ratio sweeps, and short unaligned
// lengths. Every kernel must produce the identical sorted result on every
// shape, called directly as well as through dispatch.

#include "util/intersect.h"

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "gtest/gtest.h"

namespace daf {
namespace {

constexpr uint32_t kPoison = 0xdeadbeefu;

std::vector<uint32_t> Reference(const std::vector<uint32_t>& a,
                                const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

// n distinct sorted values in [0, universe); n is clamped to universe.
std::vector<uint32_t> RandomSortedUnique(std::mt19937& rng, size_t n,
                                         uint32_t universe) {
  n = std::min<size_t>(n, universe);
  std::set<uint32_t> values;
  std::uniform_int_distribution<uint32_t> dist(0, universe - 1);
  while (values.size() < n) values.insert(dist(rng));
  return {values.begin(), values.end()};
}

// A contiguous run [start, start + n) — the dense-CS-segment shape.
std::vector<uint32_t> DenseRun(uint32_t start, size_t n) {
  std::vector<uint32_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = start + static_cast<uint32_t>(i);
  return out;
}

// Runs one pointer kernel into a poisoned buffer of exactly min(na, nb)
// slots and returns the written prefix. Also asserts the kernel respected
// the output bound.
using KernelFn = size_t (*)(const uint32_t*, size_t, const uint32_t*, size_t,
                            uint32_t*);

std::vector<uint32_t> RunKernel(KernelFn kernel,
                                const std::vector<uint32_t>& a,
                                const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out(std::min(a.size(), b.size()), kPoison);
  const size_t count =
      kernel(a.data(), a.size(), b.data(), b.size(), out.data());
  EXPECT_LE(count, std::min(a.size(), b.size()));
  out.resize(count);
  return out;
}

// The kernels applicable to one (a, b) shape, all checked against the
// reference. The gallop kernel's contract wants (shorter, longer).
void CheckAllTwoWay(const std::vector<uint32_t>& a,
                    const std::vector<uint32_t>& b, uint32_t universe) {
  const std::vector<uint32_t> expected = Reference(a, b);

  EXPECT_EQ(RunKernel(IntersectMergeKernel, a, b), expected);
  const auto& shorter = a.size() <= b.size() ? a : b;
  const auto& longer = a.size() <= b.size() ? b : a;
  EXPECT_EQ(RunKernel(IntersectGallopKernel, shorter, longer), expected);
  if (universe > 0) {
    const uint32_t* lists[2] = {a.data(), b.data()};
    const size_t sizes[2] = {a.size(), b.size()};
    BitmapScratch scratch;
    std::vector<uint32_t> out(a.size() + 1, kPoison);
    const size_t count =
        IntersectBitmapKernel(lists, sizes, 2, universe, &scratch, out.data());
    ASSERT_LE(count, a.size());
    out.resize(count);
    EXPECT_EQ(out, expected);
  }
  // The public dispatch entry (whatever kernel it picks must agree too).
  std::vector<uint32_t> via_sorted{kPoison};
  IntersectSorted(a.data(), a.size(), b.data(), b.size(), &via_sorted);
  EXPECT_EQ(via_sorted, expected);
}

TEST(IntersectKernelMatrixTest, EmptyDisjointIdentical) {
  const std::vector<uint32_t> empty;
  const std::vector<uint32_t> some = {1, 5, 9, 12, 40};
  CheckAllTwoWay(empty, some, 64);
  CheckAllTwoWay(some, empty, 64);
  CheckAllTwoWay(empty, empty, 64);
  CheckAllTwoWay(some, some, 64);  // identical
  const std::vector<uint32_t> evens = DenseRun(0, 32);
  std::vector<uint32_t> odds;
  for (uint32_t i = 0; i < 32; ++i) odds.push_back(100 + i);
  CheckAllTwoWay(evens, odds, 160);  // fully disjoint ranges
}

// Every short length pair up to 20 against lengths around 4, 8 and 16:
// the empty and single-element edges and the ends of each scan.
TEST(IntersectKernelMatrixTest, LengthSweepNearSimdWidths) {
  std::mt19937 rng(7);
  for (size_t na = 0; na <= 20; ++na) {
    for (size_t nb : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5},
                      size_t{7}, size_t{8}, size_t{9}, size_t{15}, size_t{16},
                      size_t{17}, size_t{20}}) {
      const uint32_t universe = 48;
      CheckAllTwoWay(RandomSortedUnique(rng, na, universe),
                     RandomSortedUnique(rng, nb, universe), universe);
    }
  }
}

// ~2.5k random shapes across density and ratio regimes.
TEST(IntersectKernelMatrixTest, RandomizedShapes) {
  std::mt19937 rng(12345);
  const uint32_t universes[] = {8, 32, 64, 200, 1000, 5000};
  const double densities[] = {0.02, 0.1, 0.3, 0.7, 1.0};
  int shapes = 0;
  for (int round = 0; round < 17; ++round) {
    for (uint32_t universe : universes) {
      for (double da : densities) {
        // Pair each a-density with a swept b-density to cover ratio space.
        const double db = densities[(round + 1) % 5];
        const size_t na = static_cast<size_t>(universe * da);
        const size_t nb = static_cast<size_t>(universe * db);
        CheckAllTwoWay(RandomSortedUnique(rng, na, universe),
                       RandomSortedUnique(rng, nb, universe), universe);
        ++shapes;
      }
    }
  }
  EXPECT_GE(shapes, 500);
}

// Extreme size ratios (the galloping regime) including ratios far past
// kGallopRatio, plus dense runs with partial overlap.
TEST(IntersectKernelMatrixTest, RatioSweepAndDenseRuns) {
  std::mt19937 rng(99);
  for (size_t small : {size_t{1}, size_t{2}, size_t{5}, size_t{16}}) {
    for (size_t ratio : {size_t{8}, size_t{16}, size_t{17}, size_t{32},
                         size_t{33}, size_t{100}, size_t{1000}}) {
      const size_t large = small * ratio;
      const uint32_t universe = static_cast<uint32_t>(large * 2 + 8);
      CheckAllTwoWay(RandomSortedUnique(rng, small, universe),
                     RandomSortedUnique(rng, large, universe), universe);
    }
  }
  for (uint32_t offset : {0u, 1u, 7u, 31u, 64u, 127u, 128u}) {
    CheckAllTwoWay(DenseRun(0, 128), DenseRun(offset, 128), offset + 128);
  }
}

// Folding reference for k lists.
std::vector<uint32_t> ReferenceKWay(
    const std::vector<std::vector<uint32_t>>& lists) {
  std::vector<uint32_t> acc = lists[0];
  for (size_t i = 1; i < lists.size(); ++i) {
    acc = Reference(acc, lists[i]);
  }
  return acc;
}

TEST(IntersectKWayTest, MatchesFoldedReferenceAcrossKAndDensity) {
  std::mt19937 rng(31337);
  KWayScratch scratch;
  IntersectStats stats;
  int bitmap_shapes = 0, chain_shapes = 0;
  for (size_t k : {size_t{2}, size_t{3}, size_t{5}}) {
    for (uint32_t universe : {16u, 64u, 256u, 2048u}) {
      for (double density : {0.02, 0.2, 0.6, 1.0}) {
        for (int round = 0; round < 8; ++round) {
          std::vector<std::vector<uint32_t>> lists;
          std::vector<KWayList> views;
          for (size_t i = 0; i < k; ++i) {
            const size_t n = static_cast<size_t>(universe * density);
            lists.push_back(RandomSortedUnique(rng, n, universe));
          }
          for (const auto& list : lists) {
            views.push_back(KWayList{list.data(), list.size()});
          }
          const uint64_t bitmap_before = stats.bitmap;
          std::vector<uint32_t> out{kPoison};
          IntersectKWay(views.data(), views.size(), universe, &scratch, &out,
                        &stats);
          EXPECT_EQ(out, ReferenceKWay(lists))
              << "k=" << k << " universe=" << universe
              << " density=" << density;
          if (stats.bitmap > bitmap_before) {
            ++bitmap_shapes;
          } else {
            ++chain_shapes;
          }
        }
      }
    }
  }
  // Both k-way strategies must actually have run in this sweep.
  EXPECT_GT(bitmap_shapes, 0);
  EXPECT_GT(chain_shapes, 0);
}

TEST(IntersectKWayTest, SingleListAndEmptyList) {
  KWayScratch scratch;
  std::vector<uint32_t> a = {3, 7, 9};
  KWayList one{a.data(), a.size()};
  std::vector<uint32_t> out;
  IntersectKWay(&one, 1, 16, &scratch, &out);
  EXPECT_EQ(out, a);

  std::vector<uint32_t> empty_list;
  KWayList views[2] = {{a.data(), a.size()},
                       {empty_list.data(), empty_list.size()}};
  out.assign(5, kPoison);
  IntersectKWay(views, 2, 16, &scratch, &out);
  EXPECT_TRUE(out.empty());

  IntersectKWay(views, 0, 16, &scratch, &out);
  EXPECT_TRUE(out.empty());
}

TEST(IntersectStatsTest, DispatchCountsKernelSelections) {
  std::mt19937 rng(5);
  IntersectStats stats;
  std::vector<uint32_t> out;

  // > kGallopRatio size ratio: the galloping probe.
  const auto small = RandomSortedUnique(rng, 4, 10000);
  const auto huge = RandomSortedUnique(rng, 4 * (kGallopRatio + 1), 10000);
  IntersectSorted(small.data(), small.size(), huge.data(), huge.size(), &out,
                  &stats);
  EXPECT_EQ(stats.gallop, 1u);

  // Comparable sizes: the scalar merge.
  const auto a = RandomSortedUnique(rng, 64, 1000);
  const auto b = RandomSortedUnique(rng, 80, 1000);
  IntersectSorted(a.data(), a.size(), b.data(), b.size(), &out, &stats);
  EXPECT_EQ(stats.merge, 1u);
  EXPECT_EQ(stats.gallop, 1u);

  // Tiny comparable sizes: always the scalar merge.
  const auto ta = RandomSortedUnique(rng, 5, 40);
  const auto tb = RandomSortedUnique(rng, 6, 40);
  const uint64_t merge_before = stats.merge;
  IntersectSorted(ta.data(), ta.size(), tb.data(), tb.size(), &out, &stats);
  EXPECT_EQ(stats.merge, merge_before + 1);

  // The boundary: a ratio of exactly kGallopRatio still merges, one more
  // gallops (here with the longer list first).
  const auto eight = RandomSortedUnique(rng, 8, 100000);
  const auto at = RandomSortedUnique(rng, 8 * kGallopRatio, 100000);
  const auto past = RandomSortedUnique(rng, 8 * (kGallopRatio + 1), 100000);
  stats = {};
  IntersectSorted(eight.data(), eight.size(), at.data(), at.size(), &out,
                  &stats);
  EXPECT_EQ(stats.merge, 1u);
  EXPECT_EQ(stats.gallop, 0u);
  IntersectSorted(past.data(), past.size(), eight.data(), eight.size(), &out,
                  &stats);
  EXPECT_EQ(stats.merge, 1u);
  EXPECT_EQ(stats.gallop, 1u);
}

}  // namespace
}  // namespace daf
