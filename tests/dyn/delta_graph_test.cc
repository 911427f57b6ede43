#include "dyn/delta_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "graph/generators.h"
#include "tests/test_util.h"
#include "util/fault_inject.h"
#include "util/rng.h"

namespace daf::dyn {
namespace {

Graph SmallGraph() {
  // Labels: 0:A 1:B 2:A 3:B 4:C; path 0-1-2-3 plus edge 1-4.
  return Graph::FromEdges({10, 20, 10, 20, 30},
                          {{0, 1}, {1, 2}, {2, 3}, {1, 4}});
}

/// Reference view: edge map of the current graph per direct reads.
std::map<std::pair<VertexId, VertexId>, Label> EdgeMap(const DeltaGraph& dg) {
  std::map<std::pair<VertexId, VertexId>, Label> out;
  for (const auto& [e, l] : dg.CurrentEdges()) out[e] = l;
  return out;
}

TEST(DeltaGraphTest, InitialStateMatchesBase) {
  DeltaGraph dg(SmallGraph());
  EXPECT_EQ(dg.version(), 0u);
  EXPECT_EQ(dg.NumVertices(), 5u);
  EXPECT_EQ(dg.NumEdges(), 4u);
  EXPECT_TRUE(dg.HasEdge(0, 1));
  EXPECT_TRUE(dg.HasEdge(1, 0));
  EXPECT_FALSE(dg.HasEdge(0, 2));
  EXPECT_EQ(dg.OriginalLabel(0), 10u);
  EXPECT_EQ(dg.OriginalLabel(4), 30u);
  EXPECT_EQ(dg.Degree(1), 3u);
  std::shared_ptr<const Graph> snap = dg.Materialize();
  EXPECT_EQ(snap->NeighborLabelCount(1, snap->DenseLabel(10)), 2u);
  EXPECT_EQ(snap->NeighborLabelCount(1, snap->DenseLabel(30)), 1u);
}

TEST(DeltaGraphTest, InsertAndRemoveEdges) {
  DeltaGraph dg(SmallGraph());
  UpdateBatch batch;
  batch.InsertEdge(0, 3).RemoveEdge(1, 2);
  NormalizedBatch net;
  ApplyResult r = dg.ApplyBatch(batch, &net);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.version, 1u);
  EXPECT_EQ(r.inserted_edges, 1u);
  EXPECT_EQ(r.removed_edges, 1u);
  EXPECT_TRUE(dg.HasEdge(0, 3));
  EXPECT_FALSE(dg.HasEdge(1, 2));
  EXPECT_EQ(dg.NumEdges(), 4u);
  EXPECT_EQ(dg.Degree(2), 1u);
  EXPECT_EQ(dg.Degree(1), 2u);
  ASSERT_EQ(net.inserts.size(), 1u);
  EXPECT_EQ(net.removes.size(), 1u);
  // The snapshot's NLF view follows.
  std::shared_ptr<const Graph> snap = dg.Materialize();
  EXPECT_EQ(snap->NeighborLabelCount(1, snap->DenseLabel(10)), 1u);
  EXPECT_EQ(snap->NeighborLabelCount(0, snap->DenseLabel(20)), 2u);
}

TEST(DeltaGraphTest, NetCancellationWithinBatch) {
  DeltaGraph dg(SmallGraph());
  // Removals run after insertions and take precedence: inserting and
  // removing a brand-new edge in one batch is a net no-op, and removing a
  // pre-existing edge wins over a same-batch duplicate insert.
  UpdateBatch batch;
  batch.InsertEdge(0, 3).RemoveEdge(0, 3).InsertEdge(0, 1).RemoveEdge(0, 1);
  NormalizedBatch net;
  ApplyResult r = dg.ApplyBatch(batch, &net);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(net.inserts.empty());
  ASSERT_EQ(net.removes.size(), 1u);
  EXPECT_FALSE(dg.HasEdge(0, 1));
  EXPECT_FALSE(dg.HasEdge(0, 3));
  EXPECT_EQ(dg.NumEdges(), 3u);
  // Version advances: the batch was applied.
  EXPECT_EQ(dg.version(), 1u);
}

TEST(DeltaGraphTest, EdgeLabelChangeAppearsInBothLists) {
  Graph base = Graph::FromLabeledEdges({1, 1, 1}, {{0, 1}, {1, 2}}, {5, 5});
  DeltaGraph dg(std::move(base));
  UpdateBatch batch;
  batch.InsertEdge(0, 1, 7);  // same edge, new label
  NormalizedBatch net;
  ASSERT_TRUE(dg.ApplyBatch(batch, &net).ok);
  ASSERT_EQ(net.removes.size(), 1u);
  ASSERT_EQ(net.inserts.size(), 1u);
  EXPECT_EQ(net.removes[0].edge_label, 5u);
  EXPECT_EQ(net.inserts[0].edge_label, 7u);
  EXPECT_TRUE(dg.Materialize()->HasEdgeWithLabel(0, 1, 7));
  EXPECT_FALSE(dg.Materialize()->HasEdgeWithLabel(0, 1, 5));
  EXPECT_EQ(dg.NumEdges(), 2u);
}

TEST(DeltaGraphTest, VertexAddConnectRemove) {
  DeltaGraph dg(SmallGraph());
  UpdateBatch batch;
  batch.AddVertex(30).InsertEdge(5, 0).InsertEdge(5, 2);
  NormalizedBatch net;
  ASSERT_TRUE(dg.ApplyBatch(batch, &net).ok);
  EXPECT_EQ(dg.NumVertices(), 6u);
  EXPECT_TRUE(dg.Alive(5));
  EXPECT_EQ(dg.OriginalLabel(5), 30u);
  EXPECT_EQ(dg.Degree(5), 2u);
  EXPECT_TRUE(dg.HasEdge(5, 0));
  EXPECT_EQ(net.new_vertices, (std::vector<VertexId>{5}));

  UpdateBatch removal;
  removal.RemoveVertex(5);
  NormalizedBatch net2;
  ASSERT_TRUE(dg.ApplyBatch(removal, &net2).ok);
  EXPECT_FALSE(dg.Alive(5));
  EXPECT_EQ(dg.OriginalLabel(5), DeltaGraph::kTombstoneLabel);
  EXPECT_EQ(dg.Degree(5), 0u);
  EXPECT_FALSE(dg.HasEdge(5, 0));
  EXPECT_EQ(net2.removes.size(), 2u);  // incident edges expanded
  EXPECT_EQ(dg.NumVertices(), 6u);     // id space never shrinks

  // Operations on the tombstone are rejected (atomically).
  UpdateBatch bad;
  bad.InsertEdge(5, 1);
  ApplyResult r = dg.ApplyBatch(bad);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(dg.version(), 2u);
}

TEST(DeltaGraphTest, InvalidBatchIsAtomic) {
  DeltaGraph dg(SmallGraph());
  UpdateBatch batch;
  batch.InsertEdge(0, 3).InsertEdge(0, 99);  // second op invalid
  NormalizedBatch net;
  ApplyResult r = dg.ApplyBatch(batch, &net);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(dg.version(), 0u);
  EXPECT_FALSE(dg.HasEdge(0, 3));
  EXPECT_TRUE(net.Empty());
}

TEST(DeltaGraphTest, IgnoredOps) {
  DeltaGraph dg(SmallGraph());
  UpdateBatch batch;
  batch.InsertEdge(0, 1);   // duplicate of existing edge (same label)
  batch.InsertEdge(2, 2);   // self loop
  batch.RemoveEdge(0, 3);   // absent edge
  NormalizedBatch net;
  ApplyResult r = dg.ApplyBatch(batch, &net);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.ignored_ops, 3u);
  EXPECT_TRUE(net.inserts.empty());
  EXPECT_TRUE(net.removes.empty());
}

TEST(DeltaGraphTest, DeltaApplyFaultLeavesGraphUntouched) {
  DeltaGraph dg(SmallGraph());
  FaultInjector::FireNth("delta_apply", 1);
  UpdateBatch batch;
  batch.InsertEdge(0, 3);
  ApplyResult r = dg.ApplyBatch(batch);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(dg.version(), 0u);
  EXPECT_FALSE(dg.HasEdge(0, 3));
  // Second attempt (one-shot fault consumed) succeeds.
  ApplyResult r2 = dg.ApplyBatch(batch);
  EXPECT_TRUE(r2.ok);
  EXPECT_TRUE(dg.HasEdge(0, 3));
  FaultInjector::Disarm();
}

TEST(DeltaGraphTest, MaterializePreservesIdsAndLabels) {
  DeltaGraph dg(SmallGraph());
  UpdateBatch batch;
  batch.AddVertex(40).InsertEdge(5, 4).RemoveEdge(0, 1).RemoveVertex(3);
  ASSERT_TRUE(dg.ApplyBatch(batch).ok);
  std::shared_ptr<const Graph> snap = dg.Materialize();
  ASSERT_EQ(snap->NumVertices(), dg.NumVertices());
  EXPECT_EQ(snap.get(), dg.Materialize().get());  // cached per version
  for (VertexId v = 0; v < dg.NumVertices(); ++v) {
    EXPECT_EQ(snap->original_label(snap->label(v)), dg.OriginalLabel(v))
        << "vertex " << v;
    EXPECT_EQ(snap->degree(v), dg.Degree(v)) << "vertex " << v;
  }
  EXPECT_EQ(snap->NumEdges(), dg.NumEdges());
  for (const auto& [e, l] : dg.CurrentEdges()) {
    EXPECT_TRUE(snap->HasEdgeWithLabel(e.first, e.second, l));
  }
}

/// Every snapshot array equal to the reference build: Graph's sorting
/// constructor over CurrentEdges() with the current original labels.
void ExpectSnapshotMatchesReference(const DeltaGraph& dg) {
  std::vector<Label> labels(dg.NumVertices());
  for (VertexId v = 0; v < dg.NumVertices(); ++v) {
    labels[v] = dg.OriginalLabel(v);
  }
  std::vector<Edge> edges;
  std::vector<Label> edge_labels;
  for (const auto& [e, l] : dg.CurrentEdges()) {
    edges.push_back(e);
    edge_labels.push_back(l);
  }
  const Graph::CsrParts want =
      Graph::FromLabeledEdges(std::move(labels), edges, edge_labels)
          .ToCsrParts();
  const Graph::CsrParts got = dg.Materialize()->ToCsrParts();
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(got.offsets, want.offsets);
  EXPECT_EQ(got.adjacency, want.adjacency);
  EXPECT_EQ(got.edge_labels, want.edge_labels);
}

/// Random batches (vertex adds, edge removes, tombstones, inserts and
/// edge-label changes) against a base whose labels are odd, while added
/// vertices draw from 0..6: even labels are new and fall between existing
/// ones, shifting the dense remap. After every batch the snapshot must
/// agree with the overlay reads and, array by array, with the reference.
/// The owner folds with Compact() after every `compact_every`-th batch
/// (0 = never).
void RandomizedDifferential(int compact_every, uint64_t seed) {
  Rng rng(seed);
  Graph::CsrParts parts = testing::RandomDataGraph(40, 90, 3, rng).ToCsrParts();
  for (Label& l : parts.labels) l = 2 * l + 1;
  std::optional<Graph> base = Graph::FromCsrParts(std::move(parts), nullptr);
  ASSERT_TRUE(base.has_value());
  DeltaGraph dg(std::move(*base));

  for (int round = 0; round < 60; ++round) {
    UpdateBatch batch;
    const int ops = 1 + static_cast<int>(rng.NextU64() % 6);
    for (int i = 0; i < ops; ++i) {
      const uint32_t n = dg.NumVertices();
      switch (rng.NextU64() % 10) {
        case 0:
          batch.AddVertex(static_cast<Label>(rng.NextU64() % 7));
          break;
        case 1:
        case 2: {
          // Remove a random existing edge.
          auto edges = dg.CurrentEdges();
          if (!edges.empty()) {
            const auto& [e, l] = edges[rng.NextU64() % edges.size()];
            (void)l;
            batch.RemoveEdge(e.first, e.second);
          }
          break;
        }
        case 3: {
          VertexId v = static_cast<VertexId>(rng.NextU64() % n);
          if (dg.Alive(v)) batch.RemoveVertex(v);
          break;
        }
        default: {
          VertexId u = static_cast<VertexId>(rng.NextU64() % n);
          VertexId v = static_cast<VertexId>(rng.NextU64() % n);
          if (u != v && dg.Alive(u) && dg.Alive(v)) {
            batch.InsertEdge(u, v, static_cast<Label>(rng.NextU64() % 3));
          }
          break;
        }
      }
    }
    ApplyResult r = dg.ApplyBatch(batch);
    ASSERT_TRUE(r.ok) << r.error;

    // Materialized CSR and overlay reads must agree on everything.
    std::shared_ptr<const Graph> snap = dg.Materialize();
    ASSERT_EQ(snap->NumVertices(), dg.NumVertices());
    ASSERT_EQ(snap->NumEdges(), dg.NumEdges());
    auto edge_map = EdgeMap(dg);
    uint64_t count = 0;
    for (VertexId v = 0; v < snap->NumVertices(); ++v) {
      EXPECT_EQ(snap->original_label(snap->label(v)), dg.OriginalLabel(v));
      EXPECT_EQ(snap->degree(v), dg.Degree(v));
      auto neighbors = snap->Neighbors(v);
      auto elabels = snap->NeighborEdgeLabels(v);
      for (size_t i = 0; i < neighbors.size(); ++i) {
        EXPECT_TRUE(dg.HasEdge(v, neighbors[i]));
        if (v < neighbors[i]) {
          auto it = edge_map.find({v, neighbors[i]});
          ASSERT_NE(it, edge_map.end());
          EXPECT_EQ(it->second, elabels[i]);
          ++count;
        }
      }
    }
    EXPECT_EQ(count, edge_map.size());
    ExpectSnapshotMatchesReference(dg);

    if (compact_every != 0 && (round + 1) % compact_every == 0) {
      dg.Compact();
      EXPECT_EQ(dg.OverlayEdges(), 0u);
      EXPECT_EQ(dg.Materialize().get(), snap.get());  // the fold reuses it
      EXPECT_EQ(EdgeMap(dg), edge_map);
    }
  }
}

TEST(DeltaGraphTest, RandomizedDifferentialAgainstMaterialized) {
  // Frequent folds: every third snapshot becomes the base.
  RandomizedDifferential(/*compact_every=*/3, 20260808);
}

TEST(DeltaGraphTest, RandomizedDifferentialWithoutCompaction) {
  // The overlay only grows: every snapshot merges the original base with
  // all sixty batches.
  for (uint64_t seed : {20260808u, 7u, 1000003u}) {
    SCOPED_TRACE(seed);
    RandomizedDifferential(/*compact_every=*/0, seed);
  }
}

/// Applies a hand-built record that contradicts `dg` and checks it is
/// rejected with the graph, version and cached snapshot untouched.
void ExpectRejected(DeltaGraph& dg, const NormalizedBatch& net) {
  const uint64_t version = dg.version();
  const uint64_t edges = dg.NumEdges();
  const auto edge_map = EdgeMap(dg);
  const std::shared_ptr<const Graph> snap = dg.Materialize();
  const ApplyResult r = dg.ApplyNormalized(net, {});
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(r.version, version);
  EXPECT_EQ(dg.version(), version);
  EXPECT_EQ(dg.NumEdges(), edges);
  EXPECT_EQ(EdgeMap(dg), edge_map);
  EXPECT_EQ(dg.Materialize().get(), snap.get());
  for (VertexId v = 0; v < dg.NumVertices(); ++v) {
    EXPECT_EQ(dg.Degree(v), snap->degree(v)) << "vertex " << v;
  }
}

TEST(DeltaGraphTest, ApplyNormalizedRejectsRecordsThatContradictTheGraph) {
  // SmallGraph: edges 0-1, 1-2, 2-3, 1-4.
  DeltaGraph dg(SmallGraph());
  {
    SCOPED_TRACE("remove of an absent edge");
    NormalizedBatch net;
    net.removes.push_back({0, 2, 0});
    ExpectRejected(dg, net);
  }
  {
    SCOPED_TRACE("the same remove twice");
    NormalizedBatch net;
    net.removes.push_back({0, 1, 0});
    net.removes.push_back({1, 0, 0});
    ExpectRejected(dg, net);
  }
  {
    SCOPED_TRACE("insert of a present edge");
    NormalizedBatch net;
    net.inserts.push_back({0, 1, 5});
    ExpectRejected(dg, net);
  }
  {
    SCOPED_TRACE("removed vertex that keeps an edge");
    NormalizedBatch net;
    net.removed_vertices.push_back(4);
    ExpectRejected(dg, net);
  }
  {
    SCOPED_TRACE("insert onto a tombstone");
    NormalizedBatch tombstone;
    tombstone.removes.push_back({1, 4, 0});
    tombstone.removed_vertices.push_back(4);
    ASSERT_TRUE(dg.ApplyNormalized(tombstone, {}).ok);
    NormalizedBatch net;
    net.inserts.push_back({0, 4, 0});
    ExpectRejected(dg, net);
  }
  // The label-change encoding stays valid: remove then re-insert.
  NormalizedBatch relabel;
  relabel.removes.push_back({0, 1, 0});
  relabel.inserts.push_back({0, 1, 5});
  const ApplyResult r = dg.ApplyNormalized(relabel, {});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(dg.Materialize()->HasEdgeWithLabel(0, 1, 5));
  ExpectSnapshotMatchesReference(dg);
}

}  // namespace
}  // namespace daf::dyn
