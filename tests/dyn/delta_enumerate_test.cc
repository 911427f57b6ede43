#include "dyn/delta_enumerate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "daf/engine.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace daf::dyn {
namespace {

using daf::testing::Collector;
using daf::testing::EmbeddingSet;

EmbeddingSet ToSet(const DeltaEnumResult& r) {
  EmbeddingSet out;
  for (const auto& m : r.embeddings) out.insert(m);
  return out;
}

EmbeddingSet MatchSet(const Graph& query, const Graph& data,
                      bool injective = true) {
  MatchOptions mo;
  mo.injective = injective;
  EmbeddingSet out;
  mo.callback = Collector(&out);
  MatchResult r = DafMatch(query, data, mo);
  EXPECT_TRUE(r.ok);
  return out;
}

DynamicCandidateSpace::Options IncrementalOptions(bool injective = true) {
  DynamicCandidateSpace::Options o;
  o.injective = injective;
  o.rebuild_min_dirty_pairs = 1u << 30;
  return o;
}

TEST(DeltaEnumerateTest, TriangleCreatedAndDestroyed) {
  Graph query = testing::MakeCycle({1, 1, 1});
  Graph data = Graph::FromEdges({1, 1, 1, 1}, {{0, 1}, {1, 2}, {2, 3}});
  DeltaGraph dg(std::move(data));
  DynamicCandidateSpace cs(query, *dg.Materialize(), IncrementalOptions());
  DeltaEnumerator en(query, cs);

  // Close the triangle 0-1-2.
  UpdateBatch batch;
  batch.InsertEdge(0, 2);
  NormalizedBatch net;
  ASSERT_TRUE(dg.Normalize(batch, &net, nullptr));
  EmbeddingSet before = MatchSet(query, *dg.Materialize());
  DeltaEnumResult destroyed = en.Destroyed(*dg.Materialize(), net, {});
  EXPECT_TRUE(destroyed.embeddings.empty());
  ASSERT_TRUE(dg.ApplyBatch(batch, &net).ok);
  cs.Apply(*dg.Materialize(), net);
  DeltaEnumResult created = en.Created(*dg.Materialize(), net, {});
  EXPECT_TRUE(created.complete);
  // Unlabeled triangle in a triangle: 6 embeddings, all new.
  EXPECT_EQ(created.embeddings.size(), 6u);
  EmbeddingSet after = MatchSet(query, *dg.Materialize());
  EXPECT_EQ(ToSet(created), after);
  EXPECT_TRUE(before.empty());

  // Now remove one triangle edge: all 6 are destroyed.
  UpdateBatch removal;
  removal.RemoveEdge(1, 2);
  NormalizedBatch net2;
  ASSERT_TRUE(dg.Normalize(removal, &net2, nullptr));
  DeltaEnumResult destroyed2 = en.Destroyed(*dg.Materialize(), net2, {});
  EXPECT_EQ(ToSet(destroyed2), after);
  ASSERT_TRUE(dg.ApplyBatch(removal, &net2).ok);
  cs.Apply(*dg.Materialize(), net2);
  DeltaEnumResult created2 = en.Created(*dg.Materialize(), net2, {});
  EXPECT_TRUE(created2.embeddings.empty());
}

TEST(DeltaEnumerateTest, MultiChangedEdgeEmbeddingReportedOnce) {
  // Both edges of the path query are inserted by one batch.
  Graph query = testing::MakePath({1, 2, 1});
  Graph data = Graph::FromEdges({1, 2, 1}, {});
  // Disconnected data is fine; the query is what must be connected.
  DeltaGraph dg(std::move(data));
  DynamicCandidateSpace cs(query, *dg.Materialize(), IncrementalOptions());
  DeltaEnumerator en(query, cs);

  UpdateBatch batch;
  batch.InsertEdge(0, 1).InsertEdge(1, 2);
  NormalizedBatch net;
  ASSERT_TRUE(dg.ApplyBatch(batch, &net).ok);
  cs.Apply(*dg.Materialize(), net);
  DeltaEnumResult created = en.Created(*dg.Materialize(), net, {});
  // Path 0-1-2 with labels 1-2-1: embeddings {0,1,2} and {2,1,0}; each
  // uses both inserted edges and must be reported exactly once.
  EXPECT_EQ(created.embeddings.size(), 2u);
  EXPECT_EQ(ToSet(created), MatchSet(query, *dg.Materialize()));
}

TEST(DeltaEnumerateTest, HomomorphismDedup) {
  // Symmetric path query, homomorphic matching: u0 and u2 may map to the
  // same data vertex, and both query edges map onto one data edge.
  Graph query = testing::MakePath({1, 2, 1});
  Graph data = Graph::FromEdges({1, 2}, {});
  DeltaGraph dg(std::move(data));
  DynamicCandidateSpace cs(query, *dg.Materialize(), IncrementalOptions(false));
  DeltaEnumerator en(query, cs);

  UpdateBatch batch;
  batch.InsertEdge(0, 1);
  NormalizedBatch net;
  ASSERT_TRUE(dg.ApplyBatch(batch, &net).ok);
  cs.Apply(*dg.Materialize(), net);
  DeltaEnumResult created = en.Created(*dg.Materialize(), net, {});
  // Only homomorphism: 0->0, 1->1, 2->0.
  ASSERT_EQ(created.embeddings.size(), 1u);
  EXPECT_EQ(created.embeddings[0], (std::vector<VertexId>{0, 1, 0}));
  EXPECT_EQ(ToSet(created),
            MatchSet(query, *dg.Materialize(), /*injective=*/false));
}

TEST(DeltaEnumerateTest, EdgeLabelChangeSwapsEmbeddings) {
  Graph query = Graph::FromLabeledEdges({1, 1}, {{0, 1}}, {7});
  Graph data = Graph::FromLabeledEdges({1, 1}, {{0, 1}}, {5});
  DeltaGraph dg(std::move(data));
  DynamicCandidateSpace cs(query, *dg.Materialize(), IncrementalOptions());
  DeltaEnumerator en(query, cs);
  EXPECT_TRUE(MatchSet(query, *dg.Materialize()).empty());

  UpdateBatch batch;
  batch.InsertEdge(0, 1, 7);  // label change 5 -> 7
  NormalizedBatch net;
  ASSERT_TRUE(dg.Normalize(batch, &net, nullptr));
  DeltaEnumResult destroyed = en.Destroyed(*dg.Materialize(), net, {});
  EXPECT_TRUE(destroyed.embeddings.empty());  // nothing matched label 5
  ASSERT_TRUE(dg.ApplyBatch(batch, &net).ok);
  cs.Apply(*dg.Materialize(), net);
  DeltaEnumResult created = en.Created(*dg.Materialize(), net, {});
  EXPECT_EQ(created.embeddings.size(), 2u);  // both orientations
  EXPECT_EQ(ToSet(created), MatchSet(query, *dg.Materialize()));
}

TEST(DeltaEnumerateTest, SingleVertexQuery) {
  Graph query = Graph::FromEdges({42}, {});
  Graph data = Graph::FromEdges({42, 7}, {{0, 1}});
  DeltaGraph dg(std::move(data));
  DynamicCandidateSpace cs(query, *dg.Materialize(), IncrementalOptions());
  DeltaEnumerator en(query, cs);

  UpdateBatch batch;
  batch.AddVertex(42).AddVertex(7);
  NormalizedBatch net;
  ASSERT_TRUE(dg.ApplyBatch(batch, &net).ok);
  cs.Apply(*dg.Materialize(), net);
  DeltaEnumResult created = en.Created(*dg.Materialize(), net, {});
  ASSERT_EQ(created.embeddings.size(), 1u);
  EXPECT_EQ(created.embeddings[0], (std::vector<VertexId>{2}));

  UpdateBatch removal;
  removal.RemoveVertex(2);
  NormalizedBatch net2;
  ASSERT_TRUE(dg.Normalize(removal, &net2, nullptr));
  DeltaEnumResult destroyed = en.Destroyed(*dg.Materialize(), net2, {});
  ASSERT_EQ(destroyed.embeddings.size(), 1u);
  EXPECT_EQ(destroyed.embeddings[0], (std::vector<VertexId>{2}));
  ASSERT_TRUE(dg.ApplyBatch(removal, &net2).ok);
  cs.Apply(*dg.Materialize(), net2);
}

TEST(DeltaEnumerateTest, LimitTruncates) {
  Graph query = testing::MakePath({1, 1});
  Graph data = Graph::FromEdges({1, 1, 1, 1}, {});
  DeltaGraph dg(std::move(data));
  DynamicCandidateSpace cs(query, *dg.Materialize(), IncrementalOptions());
  DeltaEnumerator en(query, cs);

  UpdateBatch batch;
  batch.InsertEdge(0, 1).InsertEdge(2, 3).InsertEdge(0, 2);
  NormalizedBatch net;
  ASSERT_TRUE(dg.ApplyBatch(batch, &net).ok);
  cs.Apply(*dg.Materialize(), net);
  DeltaEnumOptions limited;
  limited.limit = 2;
  DeltaEnumResult created = en.Created(*dg.Materialize(), net, limited);
  EXPECT_FALSE(created.complete);
  EXPECT_EQ(created.embeddings.size(), 2u);
  DeltaEnumResult full = en.Created(*dg.Materialize(), net, {});
  EXPECT_TRUE(full.complete);
  EXPECT_EQ(full.embeddings.size(), 6u);  // 3 edges x 2 orientations
}

TEST(DeltaEnumerateTest, DeltaGraphOverloadsMatchSnapshotSignatures) {
  // The four DeltaGraph forwarding overloads (the constructor, Apply,
  // Destroyed, Created) must give the same bitmaps and delta sets as the
  // snapshot signatures, batch after batch.
  Rng rng(20261019);
  Graph query = testing::MakeCycle({0, 1, 2});
  DeltaGraph dg(testing::RandomDataGraph(40, 120, 3, rng));
  DynamicCandidateSpace cs_dg(query, dg, IncrementalOptions());
  DynamicCandidateSpace cs_snap(query, *dg.Materialize(), IncrementalOptions());
  DeltaEnumerator en_dg(query, cs_dg);
  DeltaEnumerator en_snap(query, cs_snap);
  uint64_t deltas = 0;
  for (int round = 0; round < 20; ++round) {
    UpdateBatch batch;
    for (int i = 0; i < 4; ++i) {
      const auto u = static_cast<VertexId>(rng.UniformInt(dg.NumVertices()));
      const auto v = static_cast<VertexId>(rng.UniformInt(dg.NumVertices()));
      if (u == v) continue;
      if (dg.HasEdge(u, v)) {
        batch.RemoveEdge(u, v);
      } else {
        batch.InsertEdge(u, v);
      }
    }
    NormalizedBatch net;
    ASSERT_TRUE(dg.Normalize(batch, &net, nullptr));
    const EmbeddingSet destroyed = ToSet(en_dg.Destroyed(dg, net, {}));
    EXPECT_EQ(destroyed, ToSet(en_snap.Destroyed(*dg.Materialize(), net, {})));
    ASSERT_TRUE(dg.ApplyBatch(batch, &net).ok);
    cs_dg.Apply(dg, net);
    cs_snap.Apply(*dg.Materialize(), net);
    for (VertexId u = 0; u < query.NumVertices(); ++u) {
      EXPECT_TRUE(cs_dg.Candidates(u) == cs_snap.Candidates(u));
    }
    const EmbeddingSet created = ToSet(en_dg.Created(dg, net, {}));
    EXPECT_EQ(created, ToSet(en_snap.Created(*dg.Materialize(), net, {})));
    deltas += destroyed.size() + created.size();
  }
  EXPECT_GT(deltas, 0u);
}

}  // namespace
}  // namespace daf::dyn
