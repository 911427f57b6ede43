#include "daf/dynamic_cs.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "daf/engine.h"
#include "dyn/delta_graph.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace daf::dyn {
namespace {

using daf::testing::Collector;
using daf::testing::EmbeddingSet;

/// Soundness invariant: every embedding pair of the current graph must be
/// in the maintained bitmaps.
void ExpectCoversEmbeddings(const DynamicCandidateSpace& cs,
                            const Graph& query, const DeltaGraph& dg,
                            bool injective) {
  MatchOptions mo;
  mo.injective = injective;
  EmbeddingSet found;
  mo.callback = Collector(&found);
  std::shared_ptr<const Graph> snap = dg.Materialize();
  MatchResult r = DafMatch(query, *snap, mo);
  ASSERT_TRUE(r.ok);
  for (const auto& m : found) {
    for (VertexId u = 0; u < query.NumVertices(); ++u) {
      EXPECT_TRUE(cs.Has(u, m[u]))
          << "candidate (" << u << ", " << m[u] << ") missing";
    }
  }
}

/// Tightness sanity: no candidate may violate the label filter.
void ExpectLabelsRespected(const DynamicCandidateSpace& cs,
                           const Graph& query, const DeltaGraph& dg) {
  for (VertexId u = 0; u < query.NumVertices(); ++u) {
    const Label want = query.original_label(query.label(u));
    for (VertexId v = 0; v < dg.NumVertices(); ++v) {
      if (cs.Has(u, v)) {
        EXPECT_TRUE(dg.Alive(v));
        EXPECT_EQ(dg.OriginalLabel(v), want);
      }
    }
  }
}

TEST(DynamicCsTest, InitialBuildMatchesFreshCandidates) {
  // Triangle query A-B-C over a graph with one triangle.
  Graph query = testing::MakeCycle({1, 2, 3});
  Graph data = Graph::FromEdges({1, 2, 3, 1, 2},
                                {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {1, 3}});
  DeltaGraph dg(std::move(data));
  DynamicCandidateSpace cs(query, *dg.Materialize(), {});
  ExpectCoversEmbeddings(cs, query, dg, /*injective=*/true);
  ExpectLabelsRespected(cs, query, dg);
  EXPECT_FALSE(cs.EmptySomewhere());
}

TEST(DynamicCsTest, NewTriangleIsFloodedIn) {
  // The cyclic-dependency case that deadlocks a support-checked additive
  // fixpoint: three new vertices forming a brand-new triangle.
  Graph query = testing::MakeCycle({1, 2, 3});
  Graph data = Graph::FromEdges({1, 2, 3}, {{0, 1}, {1, 2}});  // no triangle
  DeltaGraph dg(std::move(data));
  DynamicCandidateSpace::Options options;
  options.rebuild_min_dirty_pairs = 1u << 30;  // force the incremental path
  DynamicCandidateSpace cs(query, *dg.Materialize(), options);

  UpdateBatch batch;
  batch.AddVertex(1).AddVertex(2).AddVertex(3);
  batch.InsertEdge(3, 4).InsertEdge(4, 5).InsertEdge(5, 3);
  NormalizedBatch net;
  ASSERT_TRUE(dg.ApplyBatch(batch, &net).ok);
  auto stats = cs.Apply(*dg.Materialize(), net);
  EXPECT_FALSE(stats.rebuilt);
  EXPECT_GT(stats.added_pairs, 0u);
  EXPECT_TRUE(cs.Has(0, 3));
  EXPECT_TRUE(cs.Has(1, 4));
  EXPECT_TRUE(cs.Has(2, 5));
  ExpectCoversEmbeddings(cs, query, dg, true);
}

TEST(DynamicCsTest, RemovalCascades) {
  // Path query A-B-C; removing the only B-C data edge must also kill the
  // A-candidate whose support went through it.
  Graph query = testing::MakePath({1, 2, 3});
  Graph data = Graph::FromEdges({1, 2, 3}, {{0, 1}, {1, 2}});
  DeltaGraph dg(std::move(data));
  DynamicCandidateSpace::Options options;
  options.rebuild_min_dirty_pairs = 1u << 30;
  DynamicCandidateSpace cs(query, *dg.Materialize(), options);
  ASSERT_TRUE(cs.Has(0, 0));

  UpdateBatch batch;
  batch.RemoveEdge(1, 2);
  NormalizedBatch net;
  ASSERT_TRUE(dg.ApplyBatch(batch, &net).ok);
  auto stats = cs.Apply(*dg.Materialize(), net);
  EXPECT_FALSE(stats.rebuilt);
  EXPECT_GT(stats.removed_pairs, 0u);
  EXPECT_FALSE(cs.Has(2, 2));  // lost its edge
  EXPECT_FALSE(cs.Has(0, 0));  // cascaded: A's support chain broke
  EXPECT_TRUE(cs.EmptySomewhere());
}

TEST(DynamicCsTest, DirtyBudgetTriggersRebuild) {
  // Star with center label 1, leaves label 0; query is one 0-1 edge.
  Graph query = testing::MakePath({0, 1});
  Graph data = testing::MakeStar({1, 0, 0, 0});
  DeltaGraph dg(std::move(data));
  DynamicCandidateSpace::Options options;
  options.rebuild_min_dirty_pairs = 0;
  options.rebuild_dirty_fraction = 0.0;  // any dirty work → rebuild
  DynamicCandidateSpace cs(query, *dg.Materialize(), options);
  ASSERT_TRUE(cs.Has(0, 1));

  UpdateBatch batch;
  batch.RemoveEdge(0, 1);  // seeds re-checks at both endpoints
  NormalizedBatch net;
  ASSERT_TRUE(dg.ApplyBatch(batch, &net).ok);
  auto stats = cs.Apply(*dg.Materialize(), net);
  EXPECT_TRUE(stats.rebuilt);
  EXPECT_FALSE(cs.Has(0, 1));
  ExpectCoversEmbeddings(cs, query, dg, true);
}

TEST(DynamicCsTest, RandomizedMaintenanceStaysSoundBothPaths) {
  for (bool injective : {true, false}) {
    for (bool force_incremental : {true, false}) {
      Rng rng(1000 + (injective ? 1 : 0) + (force_incremental ? 2 : 0));
      Graph data = testing::RandomDataGraph(35, 80, 3, rng);
      Graph query = testing::MakeCycle({0, 1, 2});
      DeltaGraph dg(std::move(data));
      DynamicCandidateSpace::Options options;
      options.injective = injective;
      if (force_incremental) {
        options.rebuild_min_dirty_pairs = 1u << 30;
      } else {
        options.rebuild_min_dirty_pairs = 0;
        options.rebuild_dirty_fraction = 0.0;
      }
      DynamicCandidateSpace cs(query, *dg.Materialize(), options);
      for (int round = 0; round < 30; ++round) {
        UpdateBatch batch;
        for (int i = 0; i < 3; ++i) {
          const uint32_t n = dg.NumVertices();
          if (rng.Bernoulli(0.55)) {
            VertexId u = static_cast<VertexId>(rng.UniformInt(n));
            VertexId v = static_cast<VertexId>(rng.UniformInt(n));
            if (u != v && dg.Alive(u) && dg.Alive(v)) batch.InsertEdge(u, v);
          } else {
            auto edges = dg.CurrentEdges();
            if (!edges.empty()) {
              const auto& e =
                  edges[rng.UniformInt(edges.size())].first;
              batch.RemoveEdge(e.first, e.second);
            }
          }
        }
        NormalizedBatch net;
        ASSERT_TRUE(dg.ApplyBatch(batch, &net).ok);
        auto stats = cs.Apply(*dg.Materialize(), net);
        if (force_incremental) {
          EXPECT_FALSE(stats.rebuilt);
        }
        ExpectCoversEmbeddings(cs, query, dg, injective);
        ExpectLabelsRespected(cs, query, dg);
      }
    }
  }
}

}  // namespace
}  // namespace daf::dyn
