// Differential oracle for the dynamic-graph subsystem: seeded random
// update batches are applied through the full MatchService stack
// (DeltaGraph + incremental DynamicCandidateSpace + delta enumeration +
// subscription delivery), and after EVERY batch the folded result set of
// each standing query — initial matches, minus destroyed, plus created —
// must equal a from-scratch DafMatch on the materialized current graph.
// The matrix covers injective and homomorphism matching, unlabeled and
// edge-labeled graphs, and both maintenance paths (forced-incremental and
// forced-rebuild budgets): 8 configurations x 25 batches = 200 oracle
// checks. A label-shift input on both paths adds 50 more: its batches add
// vertices with labels between the base's, which shifts every later
// snapshot's dense label ids, and one standing query subscribes to a label
// no vertex carries yet. Runs under ASan and TSan in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "daf/engine.h"
#include "dyn/delta_graph.h"
#include "dyn/update_batch.h"
#include "service/match_service.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace daf::service {
namespace {

using daf::testing::Collector;
using daf::testing::EmbeddingSet;
using daf::testing::MakeCycle;
using daf::testing::MakePath;

struct OracleConfig {
  bool injective = true;
  bool edge_labels = false;
  bool force_incremental = true;
  uint64_t seed = 0;
  /// Base labels 2l+1 ({1, 3, 5}); added vertices take the even labels
  /// 2 or 4 in between.
  bool label_shift = false;
};

// A connected random graph over 3 vertex labels ({0, 1, 2}, or {1, 3, 5}
// under label_shift), with edge labels in {1, 2} when requested (0 would
// be the "unlabeled" label).
Graph RandomData(uint32_t n, uint64_t m, const OracleConfig& config,
                 Rng& rng) {
  std::vector<Edge> edges = ErdosRenyiEdges(n, m, rng);
  ConnectComponents(n, &edges, rng);
  std::vector<Label> labels = ZipfLabels(n, 3, 0.5, rng);
  if (config.label_shift) {
    for (Label& l : labels) l = 2 * l + 1;
  }
  if (!config.edge_labels) return Graph::FromEdges(std::move(labels), edges);
  std::vector<Label> elabels(edges.size());
  for (Label& l : elabels) l = 1 + static_cast<Label>(rng.UniformInt(2));
  return Graph::FromLabeledEdges(std::move(labels), edges, elabels);
}

// The standing queries of one configuration: a path and a cycle over the
// data's label alphabet (edge-labeled variants when the data is). Under
// label_shift a third query, the last, needs label 2, which only vertices
// added by batches carry.
std::vector<Graph> StandingQueries(const OracleConfig& config) {
  std::vector<Graph> queries;
  if (config.label_shift) {
    queries.push_back(MakePath({1, 3, 1}));
    queries.push_back(MakeCycle({1, 3, 5}));
    queries.push_back(MakePath({2, 1}));
    return queries;
  }
  if (!config.edge_labels) {
    queries.push_back(MakePath({0, 1, 0}));
    queries.push_back(MakeCycle({0, 1, 2}));
    return queries;
  }
  queries.push_back(Graph::FromLabeledEdges({0, 1, 0}, {{0, 1}, {1, 2}},
                                            {1, 2}));
  queries.push_back(Graph::FromLabeledEdges(
      {0, 1, 2}, {{0, 1}, {1, 2}, {2, 0}}, {1, 1, 2}));
  return queries;
}

EmbeddingSet FreshMatch(const Graph& query, const Graph& data,
                        bool injective) {
  EmbeddingSet out;
  MatchOptions options;
  options.injective = injective;
  options.callback = Collector(&out);
  MatchResult r = DafMatch(query, data, options);
  EXPECT_TRUE(r.ok) << r.error;
  return out;
}

// One random batch against the current snapshot: edge inserts and removes,
// occasional vertex additions (immediately connected) and removals. Only
// alive vertices are referenced, so every batch is valid.
dyn::UpdateBatch RandomBatch(const Graph& snapshot, const OracleConfig& config,
                             Rng& rng) {
  const uint32_t n = snapshot.NumVertices();
  std::vector<VertexId> alive;
  alive.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    if (snapshot.original_label(snapshot.label(v)) !=
        dyn::DeltaGraph::kTombstoneLabel) {
      alive.push_back(v);
    }
  }
  auto pick_alive = [&] { return alive[rng.UniformInt(alive.size())]; };
  auto edge_label = [&]() -> Label {
    return config.edge_labels ? 1 + static_cast<Label>(rng.UniformInt(2))
                              : 0;
  };

  dyn::UpdateBatch batch;
  uint32_t next_new = n;
  const int ops = 1 + static_cast<int>(rng.UniformInt(4));
  for (int i = 0; i < ops; ++i) {
    const double p = static_cast<double>(rng.UniformInt(100)) / 100.0;
    if (p < 0.40) {
      const VertexId u = pick_alive(), v = pick_alive();
      if (u != v) batch.InsertEdge(u, v, edge_label());
    } else if (p < 0.78) {
      // Remove a random current edge.
      const VertexId u = pick_alive();
      auto neighbors = snapshot.Neighbors(u);
      if (!neighbors.empty()) {
        batch.RemoveEdge(u, neighbors[rng.UniformInt(neighbors.size())]);
      }
    } else if (p < 0.92) {
      // New vertex, wired in immediately so the graph stays interesting.
      const Label l =
          config.label_shift ? 2 + 2 * static_cast<Label>(rng.UniformInt(2))
                             : static_cast<Label>(rng.UniformInt(3));
      batch.AddVertex(l);
      batch.InsertEdge(next_new, pick_alive(), edge_label());
      ++next_new;
    } else {
      batch.RemoveVertex(pick_alive());
    }
  }
  return batch;
}

void RunOracle(const OracleConfig& config) {
  SCOPED_TRACE("injective=" + std::to_string(config.injective) +
               " edge_labels=" + std::to_string(config.edge_labels) +
               " incremental=" + std::to_string(config.force_incremental) +
               " seed=" + std::to_string(config.seed) +
               " label_shift=" + std::to_string(config.label_shift));
  Rng rng(config.seed);

  ServiceOptions options;
  options.num_workers = 1;
  if (config.force_incremental) {
    options.dyn_rebuild_min_dirty_pairs = uint64_t{1} << 40;
  } else {
    options.dyn_rebuild_min_dirty_pairs = 0;
    options.dyn_rebuild_dirty_fraction = 0.0;  // every batch rebuilds
  }
  MatchService service(RandomData(28, 60, config, rng), options);

  std::vector<Graph> queries = StandingQueries(config);
  std::vector<SubscriptionHandle> subs;
  std::vector<EmbeddingSet> live;
  std::vector<uint64_t> created(queries.size(), 0);
  for (const Graph& q : queries) {
    QueryJob job;
    job.query = q;
    job.options.injective = config.injective;
    subs.push_back(service.Subscribe(std::move(job)));
    ASSERT_TRUE(subs.back().ok()) << subs.back().error();
    live.push_back(FreshMatch(q, *service.Snapshot(), config.injective));
  }

  constexpr int kBatches = 25;
  for (int round = 0; round < kBatches; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    dyn::UpdateBatch batch =
        RandomBatch(*service.Snapshot(), config, rng);
    UpdateOutcome out = service.ApplyUpdates(batch);
    ASSERT_TRUE(out.ok) << out.error;

    std::shared_ptr<const Graph> now = service.Snapshot();
    for (size_t s = 0; s < subs.size(); ++s) {
      SCOPED_TRACE("query " + std::to_string(s));
      for (DeltaBatch& db : subs[s].Drain()) {
        ASSERT_FALSE(db.resync);
        for (EmbeddingDelta& d : db.deltas) {
          if (d.created) {
            ++created[s];
            ASSERT_TRUE(live[s].insert(std::move(d.embedding)).second)
                << "duplicate created delta";
          } else {
            ASSERT_EQ(live[s].erase(d.embedding), 1u)
                << "destroyed delta was not live";
          }
        }
      }
      // The oracle: folded deltas == from-scratch match on the current
      // materialized graph, as exact embedding sets.
      EXPECT_EQ(live[s], FreshMatch(queries[s], *now, config.injective));
    }
  }

  // The intended maintenance path actually ran. (A zero budget still
  // serves a batch incrementally when it generates no dirty work at all,
  // so the rebuild configs assert presence, not exclusivity.)
  const auto m = service.Metrics();
  if (config.force_incremental) {
    EXPECT_EQ(m.dyn_cs_rebuilds, 0u);
  } else {
    EXPECT_GT(m.dyn_cs_rebuilds, 0u);
  }
  EXPECT_EQ(m.dyn_batches_applied, static_cast<uint64_t>(kBatches));
  if (config.label_shift) {
    // The query on the label absent at subscribe time saw it arrive.
    EXPECT_GT(created.back(), 0u);
  }
}

TEST(DynamicOracleTest, InjectiveUnlabeledIncremental) {
  RunOracle({true, false, true, 101});
}
TEST(DynamicOracleTest, InjectiveUnlabeledRebuild) {
  RunOracle({true, false, false, 102});
}
TEST(DynamicOracleTest, InjectiveEdgeLabeledIncremental) {
  RunOracle({true, true, true, 103});
}
TEST(DynamicOracleTest, InjectiveEdgeLabeledRebuild) {
  RunOracle({true, true, false, 104});
}
TEST(DynamicOracleTest, HomomorphismUnlabeledIncremental) {
  RunOracle({false, false, true, 105});
}
TEST(DynamicOracleTest, HomomorphismUnlabeledRebuild) {
  RunOracle({false, false, false, 106});
}
TEST(DynamicOracleTest, HomomorphismEdgeLabeledIncremental) {
  RunOracle({false, true, true, 107});
}
TEST(DynamicOracleTest, HomomorphismEdgeLabeledRebuild) {
  RunOracle({false, true, false, 108});
}
TEST(DynamicOracleTest, LabelShiftIncremental) {
  RunOracle({true, false, true, 109, true});
}
TEST(DynamicOracleTest, LabelShiftRebuild) {
  RunOracle({true, false, false, 110, true});
}

}  // namespace
}  // namespace daf::service
