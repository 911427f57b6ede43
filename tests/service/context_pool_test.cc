#include "service/context_pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace daf::service {
namespace {

// Warms a leased context's arena past `bytes` of retained capacity.
void WarmArena(MatchContext* context, uint64_t bytes) {
  while (context->arena_stats().capacity_bytes <= bytes) {
    context->arena().AllocateBytes(1 << 16, 8);
  }
}

TEST(ContextPoolTest, LeaseGrantsExclusiveAccess) {
  ContextPool pool(2);
  ContextPool::Lease a = pool.Acquire();
  ContextPool::Lease b = pool.Acquire();
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(pool.available(), 0u);
  // The free list is LIFO: the context returned last is leased next.
  MatchContext* returned = a.get();
  a.Release();
  EXPECT_EQ(pool.available(), 1u);
  ContextPool::Lease c = pool.Acquire();
  EXPECT_EQ(c.get(), returned);
  EXPECT_EQ(pool.available(), 0u);
}

TEST(ContextPoolTest, SheddingCapsRetainedFootprintOnReturn) {
  constexpr uint64_t kRetain = 1 << 18;  // 256 KiB threshold
  ContextPool pool(1, kRetain);
  {
    ContextPool::Lease lease = pool.Acquire();
    WarmArena(lease.get(), 4 * kRetain);
    EXPECT_GT(lease->arena_stats().capacity_bytes, kRetain);
  }  // return sheds
  ContextPool::Lease lease = pool.Acquire();
  EXPECT_LE(lease->arena_stats().capacity_bytes, kRetain);
  // The shrunk context still serves allocations (it re-warms).
  void* p = lease->arena().AllocateBytes(1 << 12, 8);
  EXPECT_NE(p, nullptr);
}

TEST(ContextPoolTest, NoSheddingBelowThreshold) {
  constexpr uint64_t kRetain = 1 << 22;  // 4 MiB — far above the warmth
  ContextPool pool(1, kRetain);
  uint64_t warmed = 0;
  {
    ContextPool::Lease lease = pool.Acquire();
    WarmArena(lease.get(), 1 << 17);
    warmed = lease->arena_stats().capacity_bytes;
    ASSERT_LE(warmed, kRetain);
  }
  // A context under the threshold keeps its warmth — the whole point of
  // the pool (shedding must not cold-start everyone).
  ContextPool::Lease lease = pool.Acquire();
  EXPECT_EQ(lease->arena_stats().capacity_bytes, warmed);
}

TEST(ContextPoolTest, ZeroThresholdDisablesShedding) {
  ContextPool pool(1, 0);
  uint64_t warmed = 0;
  {
    ContextPool::Lease lease = pool.Acquire();
    WarmArena(lease.get(), 1 << 20);
    warmed = lease->arena_stats().capacity_bytes;
  }
  ContextPool::Lease lease = pool.Acquire();
  EXPECT_EQ(lease->arena_stats().capacity_bytes, warmed);
}

TEST(ContextPoolTest, PeakInUseTracksHighWaterMark) {
  ContextPool pool(3);
  EXPECT_EQ(pool.peak_in_use(), 0u);
  {
    ContextPool::Lease a = pool.Acquire();
    EXPECT_EQ(pool.peak_in_use(), 1u);
    ContextPool::Lease b = pool.Acquire();
    ContextPool::Lease c = pool.Acquire();
    EXPECT_EQ(pool.peak_in_use(), 3u);
  }
  // The mark is a high-water mark: it survives the leases.
  EXPECT_EQ(pool.peak_in_use(), 3u);
  EXPECT_EQ(pool.available(), 3u);
  ContextPool::Lease d = pool.Acquire();
  EXPECT_EQ(pool.peak_in_use(), 3u);
}

TEST(ContextPoolTest, SheddingIsSafeUnderContention) {
  constexpr uint64_t kRetain = 1 << 16;
  ContextPool pool(2, kRetain);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool] {
      for (int i = 0; i < 50; ++i) {
        ContextPool::Lease lease = pool.Acquire();
        WarmArena(lease.get(), 1 << 17);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(pool.available(), 2u);
  // Concurrency of the leases is scheduling-dependent; the mark only has
  // hard bounds.
  EXPECT_GE(pool.peak_in_use(), 1u);
  EXPECT_LE(pool.peak_in_use(), 2u);
  for (int i = 0; i < 2; ++i) {
    ContextPool::Lease lease = pool.Acquire();
    EXPECT_LE(lease->arena_stats().capacity_bytes, kRetain);
    lease.Release();
  }
}

}  // namespace
}  // namespace daf::service
