// Differential tests of the work-stealing parallel engine: for every search
// option combination, the stolen-subtree decomposition must produce exactly
// the single-threaded engine's results — same embedding counts, and (without
// a limit) the same embedding *set*. The forced-split configuration
// (split_threshold = 1) donates maximally eagerly, so frame splitting, task
// replay, and the failing-set conservativeness rule at task boundaries are
// all exercised constantly; these tests also run under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "daf/boost.h"
#include "daf/parallel.h"
#include "daf/steal.h"
#include "graph/query_extract.h"
#include "tests/test_util.h"

namespace daf {
namespace {

using daf::testing::Collector;
using daf::testing::EmbeddingSet;
using daf::testing::MakeClique;
using daf::testing::MakeCycle;

ParallelMatchResult RunStealing(const Graph& query, const Graph& data,
                                MatchOptions opts, uint32_t threads,
                                uint32_t split_threshold) {
  opts.parallel_strategy = ParallelStrategy::kWorkStealing;
  opts.split_threshold = split_threshold;
  return ParallelDafMatch(query, data, opts, threads);
}

TEST(WorkStealTest, FullOptionMatrixMatchesSequential) {
  Rng rng(2024);
  Graph data = daf::testing::RandomDataGraph(40, 140, 2, rng);
  auto extracted = ExtractRandomWalkQuery(data, 6, -1.0, rng);
  ASSERT_TRUE(extracted.has_value());
  const Graph& query = extracted->query;
  for (MatchOrder order : {MatchOrder::kPathSize, MatchOrder::kCandidateSize}) {
    for (bool failing_sets : {true, false}) {
      for (bool leaf_decomposition : {true, false}) {
        for (bool injective : {true, false}) {
          MatchOptions opts;
          opts.order = order;
          opts.use_failing_sets = failing_sets;
          opts.leaf_decomposition = leaf_decomposition;
          opts.injective = injective;
          MatchResult sequential = DafMatch(query, data, opts);
          ASSERT_TRUE(sequential.ok);
          for (uint32_t threads : {2u, 4u}) {
            for (uint32_t threshold : {1u, 8u}) {
              ParallelMatchResult r =
                  RunStealing(query, data, opts, threads, threshold);
              ASSERT_TRUE(r.ok);
              EXPECT_EQ(r.embeddings, sequential.embeddings)
                  << "order=" << static_cast<int>(order)
                  << " fs=" << failing_sets << " leaf=" << leaf_decomposition
                  << " inj=" << injective << " threads=" << threads
                  << " threshold=" << threshold;
            }
          }
        }
      }
    }
  }
}

TEST(WorkStealTest, ExactEmbeddingSetUnderForcedSplitting) {
  Graph data = MakeClique({0, 0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0, 0});
  EmbeddingSet expected;
  MatchOptions seq;
  seq.callback = Collector(&expected);
  MatchResult sequential = DafMatch(query, data, seq);
  ASSERT_TRUE(sequential.ok);
  ASSERT_FALSE(expected.empty());

  EmbeddingSet found;
  MatchOptions par;
  par.callback = Collector(&found);  // engine serializes the callback
  ParallelMatchResult r = RunStealing(query, data, par, 4,
                                      /*split_threshold=*/1);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(found, expected);
  EXPECT_EQ(r.embeddings, expected.size());
}

TEST(WorkStealTest, BoostEquivalenceMatchesSequential) {
  // Every data vertex of a uniform clique is equivalent, so DAF-Boost's
  // failed-class skipping fires constantly; stolen tasks must start a fresh
  // failed-class record instead of inheriting the donor's.
  Graph data = MakeClique({0, 0, 0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0, 0, 0});
  VertexEquivalence eq = VertexEquivalence::Compute(data);
  MatchOptions opts;
  opts.equivalence = &eq;
  MatchResult sequential = DafMatch(query, data, opts);
  ASSERT_TRUE(sequential.ok);
  for (uint32_t threshold : {1u, 8u}) {
    ParallelMatchResult r = RunStealing(query, data, opts, 4, threshold);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.embeddings, sequential.embeddings)
        << "threshold=" << threshold;
  }
}

TEST(WorkStealTest, ForcedStealStress) {
  // A search large enough (~10^5 nodes) that donated tasks are actually
  // stolen by other workers even on a single-core host, not just popped
  // back by the donor. Counts must stay exact regardless of who ran what.
  Graph data = MakeClique({0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0, 0, 0, 0});
  MatchOptions opts;
  MatchResult sequential = DafMatch(query, data, opts);
  ASSERT_TRUE(sequential.ok);
  ParallelMatchResult r = RunStealing(query, data, opts, 4,
                                      /*split_threshold=*/1);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.embeddings, sequential.embeddings);
  // Stealing never prunes more than the sequential search (donated frames
  // report conservative failing sets), so it can only examine extra nodes
  // when a donated range would later have been certificate-pruned.
  EXPECT_GE(r.recursive_calls, sequential.recursive_calls);
  EXPECT_GT(r.donations, 0u);
  EXPECT_GT(r.tasks_executed, 1u);  // the seed plus donated subtrees
}

TEST(WorkStealTest, WorkConservation) {
  // With failing-set pruning off the search is exhaustive, so stealing
  // redistributes the tree without duplicating or dropping a single node:
  // summed recursive calls equal the single-threaded engine's exactly (the
  // root-cursor strategy pays one extra root scan per worker instead).
  // With pruning on, exact equality can break: a donated range may be one
  // the donor would later have pruned via a child's certificate.
  Graph data = MakeClique({0, 0, 0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0, 0});
  MatchOptions opts;
  opts.use_failing_sets = false;
  MatchResult sequential = DafMatch(query, data, opts);
  ASSERT_TRUE(sequential.ok);
  for (uint32_t threads : {2u, 4u, 8u}) {
    ParallelMatchResult r = RunStealing(query, data, opts, threads,
                                        /*split_threshold=*/1);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.recursive_calls, sequential.recursive_calls)
        << "threads=" << threads;
    EXPECT_EQ(r.embeddings, sequential.embeddings);
  }
}

TEST(WorkStealTest, ExactLimit) {
  Graph data = MakeClique({0, 0, 0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});  // 8*7*6 = 336 embeddings
  for (uint32_t threads : {2u, 4u, 8u}) {
    for (uint32_t threshold : {1u, 8u}) {
      MatchOptions opts;
      opts.limit = 100;
      ParallelMatchResult r = RunStealing(query, data, opts, threads,
                                          threshold);
      ASSERT_TRUE(r.ok);
      EXPECT_TRUE(r.limit_reached);
      EXPECT_EQ(r.embeddings, 100u)
          << "threads=" << threads << " threshold=" << threshold;
    }
  }
}

TEST(WorkStealTest, ExactLimitWithDeadlineArmed) {
  // An armed (never firing) deadline routes every worker through the full
  // StopCondition path; the claim-before-count limit must stay exact.
  Graph data = MakeClique({0, 0, 0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});
  MatchOptions opts;
  opts.limit = 100;
  opts.time_limit_ms = 600000;
  ParallelMatchResult r = RunStealing(query, data, opts, 4,
                                      /*split_threshold=*/1);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.limit_reached);
  EXPECT_FALSE(r.timed_out);
  EXPECT_EQ(r.embeddings, 100u);
}

TEST(WorkStealTest, LimitAboveTotalFindsEverything) {
  Graph data = MakeClique({0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});  // 6*5*4 = 120 embeddings
  MatchOptions opts;
  opts.limit = 100000;
  ParallelMatchResult r = RunStealing(query, data, opts, 4,
                                      /*split_threshold=*/1);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.limit_reached);
  EXPECT_EQ(r.embeddings, 120u);
}

TEST(WorkStealTest, CancelMidRun) {
  // The callback cancels after 100 embeddings, strictly before the ~6.6e5
  // total, so the cancel always lands mid-search; every worker must then
  // stop within its next StopCondition poll window and report cancelled.
  Graph data = MakeClique({0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0, 0, 0, 0});
  CancelToken cancel;
  std::atomic<uint64_t> delivered{0};
  MatchOptions opts;
  opts.cancel = &cancel;
  opts.callback = [&](std::span<const VertexId>) {
    if (delivered.fetch_add(1) + 1 == 100) cancel.Cancel();
    return true;
  };
  ParallelMatchResult r = RunStealing(query, data, opts, 4,
                                      /*split_threshold=*/1);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.cancelled);
  EXPECT_GE(r.embeddings, 100u);
  EXPECT_LT(r.embeddings, 665280u);
}

TEST(WorkStealTest, CancelBeforeRun) {
  Graph data = MakeClique({0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});
  CancelToken cancel;
  cancel.Cancel();
  MatchOptions opts;
  opts.cancel = &cancel;
  ParallelMatchResult r = RunStealing(query, data, opts, 4,
                                      /*split_threshold=*/1);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.cancelled);
}

TEST(WorkStealTest, SingleThreadFallsBackToSequentialEngine) {
  // num_threads == 1 short-circuits to the plain Run path even under
  // kWorkStealing; results and the steal counters must reflect that.
  Graph data = MakeClique({0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});
  ParallelMatchResult r = RunStealing(query, data, MatchOptions{}, 1,
                                      /*split_threshold=*/1);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.embeddings, 60u);
  EXPECT_EQ(r.tasks_executed, 0u);
  EXPECT_EQ(r.steals, 0u);
  EXPECT_EQ(r.donations, 0u);
}

TEST(WorkStealTest, StrategiesAgreeOnRandomGraphs) {
  Rng rng(515);
  for (int trial = 0; trial < 5; ++trial) {
    Graph data =
        daf::testing::RandomDataGraph(50, 130 + rng.UniformInt(80), 3, rng);
    auto extracted =
        ExtractRandomWalkQuery(data, 5 + rng.UniformInt(3), -1.0, rng);
    if (!extracted) continue;
    MatchOptions steal_opts;
    steal_opts.parallel_strategy = ParallelStrategy::kWorkStealing;
    steal_opts.split_threshold = 1;
    MatchOptions cursor_opts;
    cursor_opts.parallel_strategy = ParallelStrategy::kRootCursor;
    ParallelMatchResult steal =
        ParallelDafMatch(extracted->query, data, steal_opts, 4);
    ParallelMatchResult cursor =
        ParallelDafMatch(extracted->query, data, cursor_opts, 4);
    ASSERT_TRUE(steal.ok && cursor.ok);
    EXPECT_EQ(steal.embeddings, cursor.embeddings) << "trial=" << trial;
  }
}

TEST(WorkStealTest, ProfileReportsSchedulerCounters) {
  Graph data = MakeClique({0, 0, 0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0, 0});
  obs::SearchProfile profile;
  MatchOptions opts;
  opts.profile = &profile;
  opts.parallel_strategy = ParallelStrategy::kWorkStealing;
  opts.split_threshold = 1;
  ParallelMatchResult r = ParallelDafMatch(query, data, opts, 4);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(profile.parallel.tasks_executed, r.tasks_executed);
  EXPECT_EQ(profile.parallel.steals, r.steals);
  EXPECT_EQ(profile.parallel.donations, r.donations);
  EXPECT_EQ(profile.parallel.call_imbalance, r.call_imbalance);
  ASSERT_EQ(profile.parallel.per_thread_calls.size(), 4u);
  ASSERT_EQ(profile.parallel.per_thread_steals.size(), 4u);
  uint64_t calls = 0;
  for (uint64_t c : profile.parallel.per_thread_calls) calls += c;
  EXPECT_EQ(calls, r.recursive_calls);
  uint64_t steals = 0;
  for (uint64_t s : profile.parallel.per_thread_steals) steals += s;
  EXPECT_EQ(steals, r.steals);
}

TEST(StealOrderTest, FlatTopologyPreservesPlainRing) {
  // Every thief sweeps the ring: thief t visits t+1, t+2, ... modulo n.
  StealScheduler sched(4, /*split_threshold=*/8);
  for (uint32_t t = 0; t < 4; ++t) {
    std::vector<uint32_t> ring;
    std::vector<uint32_t> order;
    for (uint32_t i = 1; i < 4; ++i) {
      ring.push_back((t + i) % 4);
      order.push_back(sched.steal_victim(t, i - 1));
    }
    EXPECT_EQ(order, ring) << "thief " << t;
  }
}

}  // namespace
}  // namespace daf
