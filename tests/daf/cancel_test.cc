// Cancellation-path consistency across the engine's one pipeline, reached
// inline (DafMatch), through parallel workers (ParallelDafMatch) and
// through the EmbeddingCursor pull adapter: each must report a cancelled
// run as ok / cancelled / !Complete() with partial counts, and an
// interrupted CS build must never masquerade as a negativity certificate.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "daf/candidate_space.h"
#include "daf/cursor.h"
#include "daf/engine.h"
#include "daf/parallel.h"
#include "daf/query_dag.h"
#include "obs/json.h"
#include "tests/test_util.h"
#include "util/stop.h"

namespace daf {
namespace {

using daf::testing::MakeClique;

// A search space with billions of embeddings: clique query in a large
// clique, so no run at these sizes finishes within a test's lifetime
// unless it is stopped.
Graph HardData() { return MakeClique(std::vector<Label>(32, 0)); }
Graph HardQuery() { return MakeClique(std::vector<Label>(7, 0)); }

TEST(CancelTest, PreCancelledMatchStopsInPreprocessing) {
  CancelToken token;
  token.Cancel();
  MatchOptions options;
  options.cancel = &token;
  MatchResult result = DafMatch(HardQuery(), HardData(), options);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.cancelled);
  EXPECT_FALSE(result.Complete());
  EXPECT_EQ(result.embeddings, 0u);
  // The interrupted (empty) CS must not read as a proven-negative query.
  EXPECT_FALSE(result.cs_certified_negative);
}

TEST(CancelTest, CancelMidSearchReportsPartialCounts) {
  CancelToken token;
  MatchOptions options;
  options.cancel = &token;
  uint64_t seen = 0;
  options.callback = [&](std::span<const VertexId>) {
    if (++seen == 100) token.Cancel();
    return true;
  };
  MatchResult result = DafMatch(HardQuery(), HardData(), options);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.cancelled);
  EXPECT_FALSE(result.timed_out);
  EXPECT_FALSE(result.limit_reached);
  EXPECT_FALSE(result.Complete());
  // Partial but nonzero progress, far short of the full enumeration.
  EXPECT_GE(result.embeddings, 100u);
  EXPECT_GT(result.recursive_calls, 0u);
}

TEST(CancelTest, CancelFromAnotherThreadStopsRunningSearch) {
  CancelToken token;
  std::atomic<uint64_t> seen{0};
  MatchOptions options;
  options.cancel = &token;
  options.callback = [&](std::span<const VertexId>) {
    seen.fetch_add(1, std::memory_order_relaxed);
    return true;
  };
  std::thread canceller([&] {
    // Wait until the search demonstrably runs, then pull the plug.
    while (seen.load(std::memory_order_relaxed) < 50) {
      std::this_thread::yield();
    }
    token.Cancel();
  });
  MatchResult result = DafMatch(HardQuery(), HardData(), options);
  canceller.join();
  EXPECT_TRUE(result.cancelled);
  EXPECT_FALSE(result.Complete());
}

TEST(CancelTest, ParallelPreCancelledMatchesSequentialShape) {
  CancelToken token;
  token.Cancel();
  MatchOptions options;
  options.cancel = &token;
  ParallelMatchResult result =
      ParallelDafMatch(HardQuery(), HardData(), options, 4);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.cancelled);
  EXPECT_FALSE(result.Complete());
  EXPECT_EQ(result.embeddings, 0u);
  EXPECT_FALSE(result.cs_certified_negative);
}

TEST(CancelTest, ParallelCancelMidSearchStopsAllWorkers) {
  CancelToken token;
  MatchOptions options;
  options.cancel = &token;
  uint64_t seen = 0;  // callback runs under the engine's mutex
  options.callback = [&](std::span<const VertexId>) {
    if (++seen == 100) token.Cancel();
    return true;
  };
  ParallelMatchResult result =
      ParallelDafMatch(HardQuery(), HardData(), options, 4);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.cancelled);
  EXPECT_FALSE(result.Complete());
  EXPECT_GE(result.embeddings, 100u);
}

TEST(CancelTest, CursorCancelStopsProducerAndMarksCancelled) {
  // Named graphs: the cursor's producer thread holds them by reference.
  Graph query = HardQuery();
  Graph data = HardData();
  CancelToken token;
  MatchOptions options;
  options.cancel = &token;
  EmbeddingCursor cursor(query, data, options);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cursor.Next().has_value());
  }
  token.Cancel();
  // Drain whatever was already buffered; the producer stops shortly.
  while (cursor.Next().has_value()) {
  }
  const MatchResult& result = cursor.Finish();
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.cancelled);
  EXPECT_FALSE(result.Complete());
  EXPECT_GE(result.embeddings, 10u);
}

TEST(CancelTest, CursorCloseIsNotCancel) {
  // Consumer-side abandonment keeps its limit_reached reporting; the
  // cancelled flag is reserved for the token path.
  Graph query = HardQuery();
  Graph data = HardData();
  EmbeddingCursor cursor(query, data);
  ASSERT_TRUE(cursor.Next().has_value());
  cursor.Close();
  const MatchResult& result = cursor.Finish();
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.limit_reached);
  EXPECT_FALSE(result.cancelled);
  EXPECT_FALSE(result.Complete());
}

TEST(CancelTest, CompletedRunIgnoresLateCancel) {
  // A cancel that lands after the search finished must not un-complete it.
  Graph data = MakeClique({0, 0, 0, 0});
  Graph query = MakeClique({0, 0, 0});
  CancelToken token;
  MatchOptions options;
  options.cancel = &token;
  MatchResult result = DafMatch(query, data, options);
  token.Cancel();
  EXPECT_TRUE(result.Complete());
  EXPECT_FALSE(result.cancelled);
  EXPECT_EQ(result.embeddings, 24u);
}

TEST(CancelTest, InterruptedCsBuildIsEmptyButStructurallyValid) {
  Graph data = HardData();
  Graph query = HardQuery();
  QueryDag dag = QueryDag::Build(query, data);
  CancelToken token;
  token.Cancel();
  StopCondition stop(nullptr, &token);
  CandidateSpace::Options options;
  options.stop = &stop;
  CandidateSpace cs = CandidateSpace::Build(query, dag, data, options);
  EXPECT_TRUE(cs.interrupted());
  EXPECT_EQ(cs.interrupt_cause(), StopCause::kCancel);
  for (VertexId u = 0; u < query.NumVertices(); ++u) {
    EXPECT_EQ(cs.NumCandidates(u), 0u);
    EXPECT_TRUE(cs.Candidates(u).empty());
  }
}

TEST(CancelTest, ExpiredDeadlineInterruptsCsBuildWithDeadlineCause) {
  Graph data = HardData();
  Graph query = HardQuery();
  QueryDag dag = QueryDag::Build(query, data);
  Deadline deadline(1);
  while (!deadline.Expired()) {
  }
  StopCondition stop(&deadline, nullptr);
  CandidateSpace::Options options;
  options.stop = &stop;
  CandidateSpace cs = CandidateSpace::Build(query, dag, data, options);
  EXPECT_TRUE(cs.interrupted());
  EXPECT_EQ(cs.interrupt_cause(), StopCause::kDeadline);
}

TEST(CancelTest, UninterruptedBuildReportsNoCause) {
  Graph data = MakeClique({0, 0, 0, 0});
  Graph query = MakeClique({0, 0, 0});
  QueryDag dag = QueryDag::Build(query, data);
  CancelToken token;  // armed but never cancelled
  StopCondition stop(nullptr, &token);
  CandidateSpace::Options options;
  options.stop = &stop;
  CandidateSpace cs = CandidateSpace::Build(query, dag, data, options);
  EXPECT_FALSE(cs.interrupted());
  EXPECT_EQ(cs.interrupt_cause(), StopCause::kNone);
  EXPECT_GT(cs.NumCandidates(0), 0u);
}

TEST(CancelTest, JsonExportCarriesCancelledFlag) {
  CancelToken token;
  token.Cancel();
  MatchOptions options;
  options.cancel = &token;
  MatchResult result = DafMatch(HardQuery(), HardData(), options);
  std::string json = obs::MatchResultToJson(result);
  EXPECT_NE(json.find("\"cancelled\": true"), std::string::npos) << json;
}

}  // namespace
}  // namespace daf
