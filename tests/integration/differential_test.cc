#include <gtest/gtest.h>

#include <vector>

#include "baselines/bruteforce.h"
#include "baselines/vf2.h"
#include "daf/engine.h"
#include "daf/parallel.h"
#include "daf/prepared.h"
#include "graph/query_extract.h"
#include "tests/test_util.h"

namespace daf {
namespace {

using daf::testing::Collector;
using daf::testing::EmbeddingSet;

// ~200 seeded random (query, data) pairs, each matched by DAF under a
// trial-dependent option combination (both matching orders, failing sets
// on/off, leaf decomposition on/off, homomorphism mode, edge labels) and
// differentially validated against the brute-force oracle and VF2: the full
// embedding *sets* must be identical, not just the counts. All DAF runs
// share one warm MatchContext, so the arena/scratch reuse path is exercised
// across hundreds of differently-shaped queries — under ASan/UBSan in CI.
// Each trial also runs the other one-thread entry points (ParallelDafMatch
// and DafMatchPrepared over a PrepareQuery blob), which must reproduce
// DafMatch's counters exactly.

constexpr int kShards = 8;
constexpr int kTrialsPerShard = 25;

// Random connected data graph whose edges carry labels from {0, 1}.
Graph RandomEdgeLabeledData(uint32_t n, uint64_t m, uint32_t num_labels,
                            Rng& rng) {
  std::vector<Edge> edges = ErdosRenyiEdges(n, m, rng);
  ConnectComponents(n, &edges, rng);
  std::vector<Label> labels = ZipfLabels(n, num_labels, 0.5, rng);
  std::vector<Label> edge_labels;
  edge_labels.reserve(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    edge_labels.push_back(static_cast<Label>(rng.UniformInt(2)));
  }
  return Graph::FromLabeledEdges(std::move(labels), edges, edge_labels);
}

// Rebuilds the extracted query with the edge labels its witness embedding
// realizes in `data`, so edge-label trials stay positive by construction.
Graph AttachWitnessEdgeLabels(const ExtractedQuery& extracted,
                              const Graph& data) {
  const Graph& q = extracted.query;
  std::vector<Label> labels;
  labels.reserve(q.NumVertices());
  for (VertexId u = 0; u < q.NumVertices(); ++u) {
    labels.push_back(q.original_label(q.label(u)));
  }
  std::vector<Edge> edges = q.EdgeList();
  std::vector<Label> edge_labels;
  edge_labels.reserve(edges.size());
  for (const Edge& e : edges) {
    edge_labels.push_back(data.EdgeLabelBetween(extracted.witness[e.first],
                                                extracted.witness[e.second]));
  }
  return Graph::FromLabeledEdges(std::move(labels), edges, edge_labels);
}

class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, DafAgreesWithOraclesOnRandomPairs) {
  MatchContext context;  // deliberately shared across all trials
  for (int i = 0; i < kTrialsPerShard; ++i) {
    const int trial = GetParam() * kTrialsPerShard + i;
    Rng rng(9000 + trial);

    const bool edge_labeled = trial % 4 == 3;
    const bool injective = trial % 5 != 4;  // every 5th trial: homomorphisms
    const int combo = trial % 8;
    MatchOptions opts;
    opts.order = (combo & 1) ? MatchOrder::kCandidateSize
                             : MatchOrder::kPathSize;
    opts.use_failing_sets = (combo & 2) != 0;
    opts.leaf_decomposition = (combo & 4) != 0;
    opts.injective = injective;

    const uint32_t data_n = 20 + static_cast<uint32_t>(rng.UniformInt(30));
    const uint64_t data_m = 40 + rng.UniformInt(100);
    const uint32_t num_labels = 2 + trial % 3;
    Graph data =
        edge_labeled
            ? RandomEdgeLabeledData(data_n, data_m, num_labels, rng)
            : daf::testing::RandomDataGraph(data_n, data_m, num_labels, rng);
    auto extracted = ExtractRandomWalkQuery(
        data, 4 + static_cast<uint32_t>(rng.UniformInt(5)), -1.0, rng);
    if (!extracted) continue;
    Graph query = edge_labeled ? AttachWitnessEdgeLabels(*extracted, data)
                               : std::move(extracted->query);

    EmbeddingSet expected;
    baselines::MatcherOptions oracle;
    oracle.injective = injective;
    oracle.callback = Collector(&expected);
    baselines::MatcherResult brute =
        baselines::BruteForceMatch(query, data, oracle);
    ASSERT_TRUE(brute.Complete()) << "trial " << trial;

    EmbeddingSet found;
    opts.callback =
        daf::testing::VerifyingCollector(query, data, &found, injective);
    MatchResult result = DafMatch(query, data, opts, &context);
    ASSERT_TRUE(result.ok) << "trial " << trial;
    EXPECT_EQ(result.embeddings, expected.size()) << "trial " << trial;
    EXPECT_EQ(found, expected)
        << "trial " << trial << " order=" << static_cast<int>(opts.order)
        << " failing=" << opts.use_failing_sets
        << " leaves=" << opts.leaf_decomposition
        << " injective=" << injective << " edge_labeled=" << edge_labeled;

    // Entry-point parity: a one-thread ParallelDafMatch and a one-thread
    // search over a PrepareQuery blob run the same pipeline as DafMatch,
    // so every counter must agree exactly.
    EmbeddingSet one_thread_found;
    opts.callback = daf::testing::VerifyingCollector(query, data,
                                                     &one_thread_found,
                                                     injective);
    ParallelMatchResult one_thread =
        ParallelDafMatch(query, data, opts, 1, &context);
    EmbeddingSet prepared_found;
    opts.callback = daf::testing::VerifyingCollector(query, data,
                                                     &prepared_found,
                                                     injective);
    PrepareOutcome prepare = PrepareQuery(query, data, opts);
    ASSERT_NE(prepare.prepared, nullptr) << "trial " << trial;
    ParallelMatchResult prepared =
        DafMatchPrepared(*prepare.prepared, data, opts, 1, &context);
    for (const ParallelMatchResult* other : {&one_thread, &prepared}) {
      const char* engine = other == &one_thread ? "ParallelDafMatch(1)"
                                                : "DafMatchPrepared(1)";
      ASSERT_TRUE(other->ok) << engine << " trial " << trial;
      EXPECT_EQ(other->embeddings, result.embeddings)
          << engine << " trial " << trial;
      EXPECT_EQ(other->recursive_calls, result.recursive_calls)
          << engine << " trial " << trial;
      EXPECT_EQ(other->cs_candidates, result.cs_candidates)
          << engine << " trial " << trial;
      EXPECT_EQ(other->cs_edges, result.cs_edges)
          << engine << " trial " << trial;
      EXPECT_EQ(other->cs_certified_negative, result.cs_certified_negative)
          << engine << " trial " << trial;
    }
    EXPECT_EQ(one_thread_found, expected) << "trial " << trial;
    EXPECT_EQ(prepared_found, expected) << "trial " << trial;

    if (injective) {  // VF2 enumerates embeddings only
      EmbeddingSet vf2_found;
      baselines::MatcherOptions vf2_opts;
      vf2_opts.callback = Collector(&vf2_found);
      baselines::MatcherResult vf2 =
          baselines::Vf2Match(query, data, vf2_opts);
      ASSERT_TRUE(vf2.Complete()) << "trial " << trial;
      EXPECT_EQ(vf2_found, expected) << "trial " << trial;
    }
  }
  // The shared context must have settled: by the end of a 25-trial shard the
  // arena has grown to the shard's high-water mark and stopped allocating.
  EXPECT_GT(context.arena_stats().capacity_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DifferentialTest,
                         ::testing::Range(0, kShards));

}  // namespace
}  // namespace daf
