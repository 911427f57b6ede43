#include <gtest/gtest.h>

#include "daf/boost.h"
#include "daf/engine.h"
#include "daf/parallel.h"
#include "graph/query_extract.h"
#include "tests/test_util.h"

namespace daf {
namespace {

using daf::testing::Collector;
using daf::testing::EmbeddingSet;

// The Example 6.1-style instance of failing_set_test.cc: every search
// dead-ends in a u2/u5 conflict on the unique B vertex, u4's D candidates
// are irrelevant to the failure, so failing-set pruning must skip the
// remaining u4 siblings (Lemma 6.1). `shared_e` collapses the D vertices'
// pendant E children into one shared vertex, which makes all D vertices
// syntactically equivalent (one DAF-Boost class of size num_d).
struct Instance {
  Graph query;
  Graph data;
};

Instance MakeInstance(uint32_t num_d, uint32_t num_c = 20,
                      bool shared_e = false) {
  Instance inst;
  inst.query = Graph::FromEdges(
      {0, 1, 2, 3, 1, 4},
      {{0, 1}, {0, 2}, {2, 4}, {0, 3}, {3, 5}});
  std::vector<Label> labels{0, 1};  // v0 = A hub, v1 = the only B
  std::vector<Edge> edges{{0, 1}};
  for (uint32_t i = 0; i < num_c; ++i) {
    VertexId c = static_cast<VertexId>(labels.size());
    labels.push_back(2);
    edges.emplace_back(0, c);
    edges.emplace_back(c, 1);
  }
  VertexId shared = kInvalidVertex;
  if (shared_e) {
    shared = static_cast<VertexId>(labels.size());
    labels.push_back(4);
  }
  for (uint32_t i = 0; i < num_d; ++i) {
    VertexId d = static_cast<VertexId>(labels.size());
    labels.push_back(3);
    edges.emplace_back(0, d);
    if (shared_e) {
      edges.emplace_back(d, shared);
    } else {
      VertexId e = static_cast<VertexId>(labels.size());
      labels.push_back(4);
      edges.emplace_back(d, e);
    }
  }
  inst.data = Graph::FromEdges(std::move(labels), edges);
  return inst;
}

TEST(SearchProfileTest, DepthHistogramSumsToRecursiveCalls) {
  Instance inst = MakeInstance(15);
  for (bool failing : {true, false}) {
    for (MatchOrder order :
         {MatchOrder::kPathSize, MatchOrder::kCandidateSize}) {
      obs::SearchProfile profile;
      MatchOptions options;
      options.use_failing_sets = failing;
      options.order = order;
      options.profile = &profile;
      MatchResult r = DafMatch(inst.query, inst.data, options);
      ASSERT_TRUE(r.ok);
      EXPECT_EQ(profile.backtrack.HistogramTotal(), r.recursive_calls)
          << "failing=" << failing;
      EXPECT_LE(profile.backtrack.peak_depth, inst.query.NumVertices());
    }
  }
}

TEST(SearchProfileTest, DepthHistogramInvariantOnRandomInstances) {
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    Graph data =
        daf::testing::RandomDataGraph(50, 100 + rng.UniformInt(150), 3, rng);
    auto extracted =
        ExtractRandomWalkQuery(data, 4 + rng.UniformInt(6), -1.0, rng);
    if (!extracted) continue;
    obs::SearchProfile profile;
    MatchOptions options;
    options.profile = &profile;
    MatchResult r = DafMatch(extracted->query, data, options);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(profile.backtrack.HistogramTotal(), r.recursive_calls);
  }
}

TEST(SearchProfileTest, PerCausePruneCountsOnFailingSetFixture) {
  Instance inst = MakeInstance(15);
  obs::SearchProfile profile;
  MatchOptions options;
  options.profile = &profile;
  MatchResult r = DafMatch(inst.query, inst.data, options);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.embeddings, 0u);
  // Every dead end is a u2/u5 injectivity conflict on the unique B vertex.
  EXPECT_GT(profile.backtrack.conflict_prunes, 0u);
  // Lemma 6.1 skips the remaining redundant u4 siblings (14 of the 15).
  EXPECT_GT(profile.backtrack.failing_set_skips, 0u);
  // No boost, no equivalence skips.
  EXPECT_EQ(profile.backtrack.boost_skips, 0u);

  // Without failing sets the same search has zero failing-set skips.
  obs::SearchProfile unpruned;
  options.use_failing_sets = false;
  options.profile = &unpruned;
  MatchResult r2 = DafMatch(inst.query, inst.data, options);
  ASSERT_TRUE(r2.ok);
  EXPECT_EQ(unpruned.backtrack.failing_set_skips, 0u);
  EXPECT_GT(unpruned.backtrack.conflict_prunes,
            profile.backtrack.conflict_prunes);
}

TEST(SearchProfileTest, BoostSkipsCountedWithEquivalence) {
  Instance inst = MakeInstance(/*num_d=*/10, /*num_c=*/5, /*shared_e=*/true);
  VertexEquivalence eq = VertexEquivalence::Compute(inst.data);
  obs::SearchProfile profile;
  MatchOptions options;
  options.use_failing_sets = false;  // isolate the boost rule
  options.equivalence = &eq;
  options.profile = &profile;
  MatchResult r = DafMatch(inst.query, inst.data, options);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.embeddings, 0u);
  // All D vertices are equivalent; after the first fails, the rest are
  // skipped by the DAF-Boost rule.
  EXPECT_GT(profile.backtrack.boost_skips, 0u);
  EXPECT_EQ(profile.backtrack.HistogramTotal(), r.recursive_calls);
}

TEST(SearchProfileTest, CsProfileAccountingIsConsistent) {
  Instance inst = MakeInstance(15);
  obs::SearchProfile profile;
  MatchOptions options;
  options.profile = &profile;
  MatchResult r = DafMatch(inst.query, inst.data, options);
  ASSERT_TRUE(r.ok);
  const obs::CsProfile& cs = profile.cs;
  // Every examined pair is either rejected by exactly one local filter or
  // becomes an initial candidate.
  EXPECT_EQ(cs.seed_considered, cs.degree_rejected + cs.mnd_rejected +
                                    cs.nlf_rejected + cs.initial_candidates);
  EXPECT_GE(cs.initial_candidates, cs.final_candidates);
  EXPECT_EQ(cs.final_candidates, r.cs_candidates);
  EXPECT_EQ(cs.edges_materialized, r.cs_edges);
  // One recorded pass per refinement step, alternating directions.
  ASSERT_EQ(cs.passes.size(), 3u);
  EXPECT_TRUE(cs.passes[0].reversed_dag);
  EXPECT_FALSE(cs.passes[1].reversed_dag);
  EXPECT_TRUE(cs.passes[2].reversed_dag);
  uint64_t removed_total = 0;
  for (const obs::CsPassStats& p : cs.passes) removed_total += p.removed;
  EXPECT_EQ(cs.initial_candidates - removed_total, cs.final_candidates);
}

TEST(SearchProfileTest, IndexBuildTimeIsChargedOnlyToTheFirstRun) {
  Instance inst = MakeInstance(15);
  MatchOptions options;
  obs::SearchProfile first;
  options.profile = &first;
  ASSERT_TRUE(DafMatch(inst.query, inst.data, options).ok);
  EXPECT_GT(first.cs.index_build_ms, 0.0);
  obs::SearchProfile second;
  options.profile = &second;
  ASSERT_TRUE(DafMatch(inst.query, inst.data, options).ok);
  EXPECT_EQ(second.cs.index_build_ms, 0.0);
  // A copy shares the built buckets; a rebuilt graph starts empty.
  const Graph copy = inst.data;
  ASSERT_TRUE(DafMatch(inst.query, copy, options).ok);
  EXPECT_EQ(second.cs.index_build_ms, 0.0);
  const Graph rebuilt = Graph::FromEdges(
      [&] {
        std::vector<Label> labels;
        for (VertexId v = 0; v < inst.data.NumVertices(); ++v) {
          labels.push_back(inst.data.original_label(inst.data.label(v)));
        }
        return labels;
      }(),
      inst.data.EdgeList());
  ASSERT_TRUE(DafMatch(inst.query, rebuilt, options).ok);
  EXPECT_GT(second.cs.index_build_ms, 0.0);
}

TEST(SearchProfileTest, DisabledProfileYieldsIdenticalResults) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    Graph data =
        daf::testing::RandomDataGraph(40, 80 + rng.UniformInt(120), 3, rng);
    auto extracted =
        ExtractRandomWalkQuery(data, 4 + rng.UniformInt(5), -1.0, rng);
    if (!extracted) continue;
    EmbeddingSet plain_set;
    MatchOptions plain;
    plain.callback = Collector(&plain_set);
    MatchResult a = DafMatch(extracted->query, data, plain);

    EmbeddingSet profiled_set;
    obs::SearchProfile profile;
    MatchOptions profiled;
    profiled.profile = &profile;
    profiled.callback = Collector(&profiled_set);
    MatchResult b = DafMatch(extracted->query, data, profiled);

    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_EQ(a.embeddings, b.embeddings);
    EXPECT_EQ(a.recursive_calls, b.recursive_calls);
    EXPECT_EQ(a.cs_candidates, b.cs_candidates);
    EXPECT_EQ(a.cs_edges, b.cs_edges);
    EXPECT_EQ(plain_set, profiled_set);
  }
}

TEST(SearchProfileTest, ParallelMergeEqualsSumOfThreadProfiles) {
  Rng rng(11);
  Graph data = daf::testing::RandomDataGraph(60, 240, 2, rng);
  auto extracted = ExtractRandomWalkQuery(data, 5, -1.0, rng);
  ASSERT_TRUE(extracted.has_value());

  obs::SearchProfile profile;
  MatchOptions options;
  options.profile = &profile;
  ParallelMatchResult r =
      ParallelDafMatch(extracted->query, data, options, /*num_threads=*/4);
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(profile.thread_profiles.size(), 4u);
  EXPECT_EQ(profile.threads, 4u);

  obs::BacktrackProfile sum;
  for (const obs::BacktrackProfile& tp : profile.thread_profiles) {
    sum.MergeFrom(tp);
  }
  EXPECT_EQ(sum.empty_candidate_prunes,
            profile.backtrack.empty_candidate_prunes);
  EXPECT_EQ(sum.conflict_prunes, profile.backtrack.conflict_prunes);
  EXPECT_EQ(sum.failing_set_skips, profile.backtrack.failing_set_skips);
  EXPECT_EQ(sum.boost_skips, profile.backtrack.boost_skips);
  EXPECT_EQ(sum.peak_depth, profile.backtrack.peak_depth);
  EXPECT_EQ(sum.depth_histogram, profile.backtrack.depth_histogram);
  // The merged histogram accounts for every worker's recursive calls.
  EXPECT_EQ(profile.backtrack.HistogramTotal(), r.recursive_calls);

  // Profiling does not change the embedding count.
  MatchOptions unprofiled;
  ParallelMatchResult r2 =
      ParallelDafMatch(extracted->query, data, unprofiled, 4);
  ASSERT_TRUE(r2.ok);
  EXPECT_EQ(r.embeddings, r2.embeddings);
}

TEST(SearchProfileTest, ProgressHookReportsMonotonicSnapshots) {
  // A single-label data graph makes a 3-path query explode into far more
  // than 4096 recursive calls, so the countdown-sampled hook must fire.
  Rng rng(5);
  Graph data = daf::testing::RandomDataGraph(150, 1500, 1, rng);
  Graph query = daf::testing::MakePath({0, 0, 0});

  std::vector<obs::ProgressSnapshot> snapshots;
  MatchOptions options;
  options.progress = [&](const obs::ProgressSnapshot& s) {
    snapshots.push_back(s);
  };
  options.progress_interval_ms = 0;  // report on every sampling tick
  MatchResult r = DafMatch(query, data, options);
  ASSERT_TRUE(r.ok);
  ASSERT_GT(r.recursive_calls, 4096u);
  ASSERT_FALSE(snapshots.empty());
  for (size_t i = 1; i < snapshots.size(); ++i) {
    EXPECT_GE(snapshots[i].recursive_calls, snapshots[i - 1].recursive_calls);
    EXPECT_GE(snapshots[i].embeddings, snapshots[i - 1].embeddings);
    EXPECT_GE(snapshots[i].elapsed_ms, snapshots[i - 1].elapsed_ms);
  }
  for (const obs::ProgressSnapshot& s : snapshots) {
    EXPECT_EQ(s.thread, 0u);
    EXPECT_GE(s.embeddings_per_sec, 0.0);
  }

  // The hook must not change what the search finds.
  MatchResult plain = DafMatch(query, data, MatchOptions{});
  EXPECT_EQ(plain.embeddings, r.embeddings);
  EXPECT_EQ(plain.recursive_calls, r.recursive_calls);
}

TEST(SearchProfileTest, ProfileIsResetBetweenRuns) {
  Instance inst = MakeInstance(10);
  obs::SearchProfile profile;
  MatchOptions options;
  options.profile = &profile;
  MatchResult first = DafMatch(inst.query, inst.data, options);
  ASSERT_TRUE(first.ok);
  MatchResult second = DafMatch(inst.query, inst.data, options);
  ASSERT_TRUE(second.ok);
  // Counters must not accumulate across runs.
  EXPECT_EQ(profile.backtrack.HistogramTotal(), second.recursive_calls);
  EXPECT_EQ(profile.cs.final_candidates, second.cs_candidates);
}

}  // namespace
}  // namespace daf
