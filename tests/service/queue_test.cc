// Unit tests of the service building blocks: the bounded multi-priority
// admission queue and the MatchContext pool.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "service/admission_queue.h"
#include "service/context_pool.h"
#include "service/job_state.h"

namespace daf::service {
namespace {

internal::JobStatePtr Job(uint64_t id, Priority priority = Priority::kNormal) {
  auto job = std::make_shared<internal::JobState>();
  job->id = id;
  job->priority = priority;
  return job;
}

TEST(AdmissionQueueTest, FifoWithinOnePriority) {
  AdmissionQueue queue(8);
  EXPECT_TRUE(queue.TryPush(Job(1)));
  EXPECT_TRUE(queue.TryPush(Job(2)));
  EXPECT_TRUE(queue.TryPush(Job(3)));
  EXPECT_EQ(queue.depth(), 3u);
  EXPECT_EQ(queue.Pop()->id, 1u);
  EXPECT_EQ(queue.Pop()->id, 2u);
  EXPECT_EQ(queue.Pop()->id, 3u);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(AdmissionQueueTest, StrictPriorityAcrossLanes) {
  AdmissionQueue queue(8);
  EXPECT_TRUE(queue.TryPush(Job(1, Priority::kBatch)));
  EXPECT_TRUE(queue.TryPush(Job(2, Priority::kNormal)));
  EXPECT_TRUE(queue.TryPush(Job(3, Priority::kInteractive)));
  EXPECT_TRUE(queue.TryPush(Job(4, Priority::kInteractive)));
  EXPECT_EQ(queue.Pop()->id, 3u);  // interactive lane first, FIFO inside
  EXPECT_EQ(queue.Pop()->id, 4u);
  EXPECT_EQ(queue.Pop()->id, 2u);
  EXPECT_EQ(queue.Pop()->id, 1u);
}

TEST(AdmissionQueueTest, CapacityIsSharedAcrossLanes) {
  AdmissionQueue queue(2);
  EXPECT_EQ(queue.capacity(), 2u);
  EXPECT_TRUE(queue.TryPush(Job(1, Priority::kBatch)));
  EXPECT_TRUE(queue.TryPush(Job(2, Priority::kInteractive)));
  // Overflow rejects regardless of the submitting lane's priority.
  EXPECT_FALSE(queue.TryPush(Job(3, Priority::kInteractive)));
  queue.Pop();
  EXPECT_TRUE(queue.TryPush(Job(4)));
}

TEST(AdmissionQueueTest, CloseDrainsThenReturnsNull) {
  AdmissionQueue queue(8);
  EXPECT_TRUE(queue.TryPush(Job(1)));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(Job(2)));  // admission stops immediately
  EXPECT_EQ(queue.Pop()->id, 1u);       // queued work still drains
  EXPECT_EQ(queue.Pop(), nullptr);
  EXPECT_EQ(queue.Pop(), nullptr);
}

TEST(AdmissionQueueTest, CloseWakesBlockedPop) {
  AdmissionQueue queue(8);
  std::atomic<bool> popped{false};
  std::thread waiter([&] {
    EXPECT_EQ(queue.Pop(), nullptr);
    popped.store(true);
  });
  queue.Close();
  waiter.join();
  EXPECT_TRUE(popped.load());
}

TEST(AdmissionQueueTest, FlushReturnsEverythingInPriorityOrder) {
  AdmissionQueue queue(8);
  EXPECT_TRUE(queue.TryPush(Job(1, Priority::kBatch)));
  EXPECT_TRUE(queue.TryPush(Job(2, Priority::kInteractive)));
  EXPECT_TRUE(queue.TryPush(Job(3, Priority::kNormal)));
  std::vector<internal::JobStatePtr> flushed = queue.Flush();
  ASSERT_EQ(flushed.size(), 3u);
  EXPECT_EQ(flushed[0]->id, 2u);
  EXPECT_EQ(flushed[1]->id, 3u);
  EXPECT_EQ(flushed[2]->id, 1u);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(AdmissionQueueTest, PopUnblocksOnPush) {
  AdmissionQueue queue(8);
  internal::JobStatePtr got;
  std::thread waiter([&] { got = queue.Pop(); });
  EXPECT_TRUE(queue.TryPush(Job(42)));
  waiter.join();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->id, 42u);
}

TEST(ContextPoolTest, CapacityAndAvailability) {
  ContextPool pool(2);
  EXPECT_EQ(pool.capacity(), 2u);
  EXPECT_EQ(pool.available(), 2u);
  {
    ContextPool::Lease a = pool.Acquire();
    EXPECT_TRUE(a);
    EXPECT_NE(a.get(), nullptr);
    EXPECT_EQ(pool.available(), 1u);
    ContextPool::Lease b = pool.Acquire();
    EXPECT_EQ(pool.available(), 0u);
    EXPECT_NE(a.get(), b.get());
  }
  EXPECT_EQ(pool.available(), 2u);  // leases returned on destruction
}

TEST(ContextPoolTest, ReleaseIsIdempotent) {
  ContextPool pool(1);
  ContextPool::Lease lease = pool.Acquire();
  lease.Release();
  lease.Release();
  EXPECT_FALSE(lease);
  EXPECT_EQ(pool.available(), 1u);
}

TEST(ContextPoolTest, MoveTransfersOwnership) {
  ContextPool pool(1);
  ContextPool::Lease a = pool.Acquire();
  MatchContext* context = a.get();
  ContextPool::Lease b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): asserting moved-from
  EXPECT_EQ(b.get(), context);
  EXPECT_EQ(pool.available(), 0u);
  b.Release();
  EXPECT_EQ(pool.available(), 1u);
}

TEST(ContextPoolTest, AcquireBlocksUntilAReturn) {
  ContextPool pool(1);
  ContextPool::Lease held = pool.Acquire();
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    ContextPool::Lease lease = pool.Acquire();
    acquired.store(true);
  });
  EXPECT_FALSE(acquired.load());
  held.Release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(ContextPoolTest, ConcurrentAcquireReleaseHandsOutExclusiveContexts) {
  ContextPool pool(3);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        ContextPool::Lease lease = pool.Acquire();
        int now = concurrent.fetch_add(1) + 1;
        int expected = peak.load();
        while (now > expected &&
               !peak.compare_exchange_weak(expected, now)) {
        }
        concurrent.fetch_sub(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(peak.load(), 3);
  EXPECT_EQ(pool.available(), 3u);
}

}  // namespace
}  // namespace daf::service
