#include "daf/engine.h"

#include <gtest/gtest.h>

#include "baselines/bruteforce.h"
#include "daf/prepared.h"
#include "graph/query_extract.h"
#include "tests/test_util.h"

namespace daf {
namespace {

using daf::testing::Collector;
using daf::testing::EmbeddingSet;
using daf::testing::MakeClique;
using daf::testing::MakeCycle;
using daf::testing::MakePath;
using daf::testing::MakeStar;

TEST(EngineTest, PathInPathAnalytic) {
  // Path A-B-C inside path A-B-C-B-A: embeddings = (0,1,2) and (4,3,2).
  Graph data = MakePath({0, 1, 2, 1, 0});
  Graph query = MakePath({0, 1, 2});
  EmbeddingSet found;
  MatchOptions opts;
  opts.callback = Collector(&found);
  MatchResult result = DafMatch(query, data, opts);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.embeddings, 2u);
  EXPECT_TRUE(found.count({0, 1, 2}));
  EXPECT_TRUE(found.count({4, 3, 2}));
}

TEST(EngineTest, TriangleInCliqueAnalytic) {
  // Unlabeled triangle in K5: 5*4*3 = 60 ordered embeddings.
  Graph data = MakeClique({0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});
  MatchResult result = DafMatch(query, data);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.embeddings, 60u);
}

TEST(EngineTest, StarInStarAnalytic) {
  // Star with 2 leaves in star with 4 leaves: 4*3 = 12 embeddings.
  Graph data = MakeStar({1, 0, 0, 0, 0});
  Graph query = MakeStar({1, 0, 0});
  MatchResult result = DafMatch(query, data);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.embeddings, 12u);
}

TEST(EngineTest, SingleVertexQuery) {
  Graph data = Graph::FromEdges({5, 5, 6}, {{0, 1}, {1, 2}});
  Graph query = Graph::FromEdges({5}, {});
  MatchResult result = DafMatch(query, data);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.embeddings, 2u);
}

TEST(EngineTest, SingleEdgeQuery) {
  Graph data = MakePath({0, 1, 0});
  Graph query = MakePath({0, 1});
  MatchResult result = DafMatch(query, data);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.embeddings, 2u);
}

TEST(EngineTest, NoEmbeddingsWithMissingLabel) {
  Graph data = MakePath({0, 1, 0});
  Graph query = MakePath({0, 9});
  MatchResult result = DafMatch(query, data);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.embeddings, 0u);
  EXPECT_TRUE(result.cs_certified_negative);
  EXPECT_EQ(result.recursive_calls, 0u);
}

TEST(EngineTest, RejectsEmptyQuery) {
  Graph data = MakePath({0, 1});
  Graph query = Graph::FromEdges({}, {});
  MatchResult result = DafMatch(query, data);
  EXPECT_FALSE(result.ok);
}

TEST(EngineTest, SupportsDisconnectedQueries) {
  // Extension over the paper: one rooted DAG per component. Query = an
  // edge (0-0) plus an isolated 0-vertex; data = path of four 0-vertices.
  // Edge embeddings: 6 ordered; times 2 remaining vertices for the isolated
  // one = 12.
  Graph data = MakePath({0, 0, 0, 0});
  Graph query = Graph::FromEdges({0, 0, 0}, {{0, 1}});
  MatchResult result = DafMatch(query, data);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.embeddings, 12u);
}

TEST(EngineTest, DisconnectedQueriesMatchBruteForce) {
  Rng rng(86);
  for (int trial = 0; trial < 10; ++trial) {
    Graph data =
        daf::testing::RandomDataGraph(40, 100 + rng.UniformInt(80), 3, rng);
    // Two independent random-walk components glued into one query graph.
    auto a = ExtractRandomWalkQuery(data, 3 + rng.UniformInt(3), -1.0, rng);
    auto b = ExtractRandomWalkQuery(data, 2 + rng.UniformInt(3), -1.0, rng);
    if (!a || !b) continue;
    std::vector<Label> labels;
    std::vector<Edge> edges;
    for (uint32_t u = 0; u < a->query.NumVertices(); ++u) {
      labels.push_back(a->query.original_label(a->query.label(u)));
    }
    uint32_t offset = a->query.NumVertices();
    for (uint32_t u = 0; u < b->query.NumVertices(); ++u) {
      labels.push_back(b->query.original_label(b->query.label(u)));
    }
    for (const Edge& e : a->query.EdgeList()) edges.push_back(e);
    for (const Edge& e : b->query.EdgeList()) {
      edges.emplace_back(e.first + offset, e.second + offset);
    }
    Graph query = Graph::FromEdges(std::move(labels), edges);
    EmbeddingSet expected;
    baselines::MatcherOptions brute;
    brute.callback = Collector(&expected);
    baselines::BruteForceMatch(query, data, brute);
    for (bool failing : {false, true}) {
      EmbeddingSet found;
      MatchOptions opts;
      opts.use_failing_sets = failing;
      opts.callback = Collector(&found);
      MatchResult result = DafMatch(query, data, opts);
      ASSERT_TRUE(result.ok);
      EXPECT_EQ(found, expected) << "failing=" << failing;
    }
  }
}

TEST(EngineTest, HomomorphismsMatchBruteForce) {
  Rng rng(87);
  for (int trial = 0; trial < 10; ++trial) {
    Graph data =
        daf::testing::RandomDataGraph(25, 50 + rng.UniformInt(50), 3, rng);
    auto extracted =
        ExtractRandomWalkQuery(data, 3 + rng.UniformInt(3), -1.0, rng);
    if (!extracted) continue;
    baselines::MatcherOptions brute;
    brute.injective = false;
    EmbeddingSet expected;
    brute.callback = Collector(&expected);
    baselines::BruteForceMatch(extracted->query, data, brute);
    EmbeddingSet found;
    MatchOptions opts;
    opts.injective = false;
    opts.callback = Collector(&found);
    MatchResult result = DafMatch(extracted->query, data, opts);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(found, expected);
    // Homomorphisms are a superset of embeddings.
    MatchResult embeddings = DafMatch(extracted->query, data);
    EXPECT_GE(result.embeddings, embeddings.embeddings);
  }
}

TEST(EngineTest, HomomorphismCollapseExample) {
  // Star query B-A-B can collapse both leaves onto the single data B: the
  // data path A-B has 0 embeddings but 1 homomorphism.
  Graph data = MakePath({0, 1});
  Graph query = MakePath({1, 0, 1});
  MatchResult strict = DafMatch(query, data);
  ASSERT_TRUE(strict.ok);
  EXPECT_EQ(strict.embeddings, 0u);
  MatchOptions hom;
  hom.injective = false;
  MatchResult relaxed = DafMatch(query, data, hom);
  ASSERT_TRUE(relaxed.ok);
  EXPECT_EQ(relaxed.embeddings, 1u);
}

TEST(EngineTest, CountAutomorphisms) {
  EXPECT_EQ(CountAutomorphisms(MakePath({0, 0, 0})), 2u);      // reflection
  EXPECT_EQ(CountAutomorphisms(MakePath({0, 1, 0})), 2u);
  EXPECT_EQ(CountAutomorphisms(MakePath({0, 1, 2})), 1u);      // rigid
  EXPECT_EQ(CountAutomorphisms(MakeCycle({0, 0, 0, 0})), 8u);  // dihedral
  EXPECT_EQ(CountAutomorphisms(MakeClique({0, 0, 0, 0})), 24u);  // S4
  EXPECT_EQ(CountAutomorphisms(MakeStar({1, 0, 0, 0})), 6u);   // 3! leaves
}

TEST(EngineTest, LimitStopsEarly) {
  Graph data = MakeClique({0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});  // 120 embeddings in K6
  MatchOptions opts;
  opts.limit = 7;
  MatchResult result = DafMatch(query, data, opts);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.embeddings, 7u);
  EXPECT_TRUE(result.limit_reached);
  EXPECT_FALSE(result.Complete());
}

TEST(EngineTest, CallbackCanStopSearch) {
  Graph data = MakeClique({0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});
  int seen = 0;
  MatchOptions opts;
  opts.callback = [&seen](std::span<const VertexId>) {
    return ++seen < 3;
  };
  MatchResult result = DafMatch(query, data, opts);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(seen, 3);
  EXPECT_EQ(result.embeddings, 3u);
}

TEST(EngineTest, TimeLimitEventuallyFires) {
  // A large unlabeled clique query in a bigger clique explodes; with a
  // 1 ms budget the search must abort with timed_out.
  std::vector<Label> data_labels(64, 0);
  std::vector<Label> query_labels(12, 0);
  Graph data = MakeClique(data_labels);
  Graph query = MakeClique(query_labels);
  MatchOptions opts;
  opts.time_limit_ms = 1;
  MatchResult result = DafMatch(query, data, opts);
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.timed_out);
  EXPECT_FALSE(result.Complete());
}

TEST(EngineTest, AllVariantsAgreeWithBruteForce) {
  Rng rng(81);
  for (int trial = 0; trial < 15; ++trial) {
    Graph data =
        daf::testing::RandomDataGraph(50, 120 + rng.UniformInt(120), 3, rng);
    auto extracted =
        ExtractRandomWalkQuery(data, 4 + rng.UniformInt(5), -1.0, rng);
    if (!extracted) continue;
    EmbeddingSet expected;
    baselines::MatcherOptions brute_opts;
    brute_opts.callback = Collector(&expected);
    baselines::BruteForceMatch(extracted->query, data, brute_opts);
    for (MatchOrder order :
         {MatchOrder::kPathSize, MatchOrder::kCandidateSize}) {
      for (bool failing : {false, true}) {
        for (bool leaf_dec : {false, true}) {
          EmbeddingSet found;
          MatchOptions opts;
          opts.order = order;
          opts.use_failing_sets = failing;
          opts.leaf_decomposition = leaf_dec;
          opts.callback = Collector(&found);
          MatchResult result = DafMatch(extracted->query, data, opts);
          ASSERT_TRUE(result.ok);
          EXPECT_EQ(found, expected)
              << "order=" << static_cast<int>(order)
              << " failing=" << failing << " leaf=" << leaf_dec;
        }
      }
    }
  }
}

TEST(EngineTest, ReportsCsStatistics) {
  Graph data = MakePath({0, 1, 2, 1, 0});
  Graph query = MakePath({0, 1, 2});
  MatchResult result = DafMatch(query, data);
  ASSERT_TRUE(result.ok);
  EXPECT_GT(result.cs_candidates, 0u);
  EXPECT_GT(result.cs_edges, 0u);
  EXPECT_GT(result.recursive_calls, 0u);
  EXPECT_GE(result.preprocess_ms, 0.0);
}

TEST(EngineTest, PreparedRunRejectsMismatchedFingerprint) {
  // A 3-leaf star over one data edge: the injective CS drops the center
  // (degree filter) and certifies the query negative, while the star has
  // two homomorphisms (center on either endpoint, leaves on the other).
  Graph data = MakePath({0, 0});
  Graph query = MakeStar({0, 0, 0, 0});
  PrepareOutcome injective = PrepareQuery(query, data, MatchOptions{});
  ASSERT_NE(injective.prepared, nullptr);
  ASSERT_TRUE(injective.prepared->cs_certified_negative);

  MatchOptions hom;
  hom.injective = false;
  MatchResult mismatched = DafMatchPrepared(*injective.prepared, data, hom);
  EXPECT_FALSE(mismatched.ok);
  EXPECT_NE(mismatched.error.find("injective"), std::string::npos)
      << mismatched.error;
  EXPECT_EQ(mismatched.embeddings, 0u);

  MatchOptions fewer_passes;
  fewer_passes.refinement_steps = 1;
  MatchResult steps = DafMatchPrepared(*injective.prepared, data, fewer_passes);
  EXPECT_FALSE(steps.ok);
  EXPECT_NE(steps.error.find("refinement_steps"), std::string::npos)
      << steps.error;

  PrepareOutcome matching = PrepareQuery(query, data, hom);
  ASSERT_NE(matching.prepared, nullptr);
  MatchResult prepared = DafMatchPrepared(*matching.prepared, data, hom);
  ASSERT_TRUE(prepared.ok);
  EXPECT_EQ(prepared.embeddings, 2u);
  EXPECT_EQ(prepared.embeddings, DafMatch(query, data, hom).embeddings);
}

}  // namespace
}  // namespace daf
