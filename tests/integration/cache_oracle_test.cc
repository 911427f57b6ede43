// Differential cache-oracle suite: 200 seeded query pairs run cold
// (QueryJob::bypass_cache), warm (cache miss then hit), and as permuted
// resubmissions, across the full option matrix — streaming, limits,
// matching order, failing sets, leaf decomposition, homomorphisms, edge
// labels, and the intra-query parallel engine. The oracle is exact: the
// cache-served embedding set (after the service's permutation remap) must
// be identical to the cold build's, never merely the same size. Runs under
// ASan and TSan in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "daf/engine.h"
#include "graph/canonical.h"
#include "graph/query_extract.h"
#include "service/match_service.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace daf::service {
namespace {

using daf::testing::EmbeddingSet;
using daf::testing::IsValidEmbedding;
using daf::testing::MakeClique;
using daf::testing::RandomDataGraph;

std::vector<VertexId> RandomPermutation(uint32_t n, Rng& rng) {
  std::vector<VertexId> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  rng.Shuffle(perm);
  return perm;
}

// Submits `query` and drains it to completion, returning the full streamed
// embedding set (in the submitted query's own vertex numbering — the
// service remaps cache-served embeddings before delivery).
EmbeddingSet StreamAll(MatchService& service, const Graph& query,
                       const MatchOptions& options, bool bypass_cache,
                       CacheOutcome* outcome = nullptr) {
  QueryJob job;
  job.query = query;
  job.options = options;
  job.stream_embeddings = true;
  job.bypass_cache = bypass_cache;
  JobHandle handle = service.Submit(std::move(job));
  EmbeddingSet out;
  for (;;) {
    std::vector<std::vector<VertexId>> batch = handle.NextBatch();
    if (batch.empty()) break;
    for (std::vector<VertexId>& e : batch) out.insert(std::move(e));
  }
  EXPECT_EQ(handle.Wait(), JobStatus::kDone);
  EXPECT_TRUE(handle.Result().ok);
  if (outcome != nullptr) *outcome = handle.cache_outcome();
  return out;
}

// Count-only submission (optionally limited / prioritized).
uint64_t CountAll(MatchService& service, const Graph& query,
                  const MatchOptions& options, bool bypass_cache,
                  uint64_t limit = 0,
                  Priority priority = Priority::kNormal,
                  CacheOutcome* outcome = nullptr) {
  QueryJob job;
  job.query = query;
  job.options = options;
  job.limit = limit;
  job.priority = priority;
  job.bypass_cache = bypass_cache;
  JobHandle handle = service.Submit(std::move(job));
  EXPECT_EQ(handle.Wait(), JobStatus::kDone);
  EXPECT_TRUE(handle.Result().ok);
  if (outcome != nullptr) *outcome = handle.cache_outcome();
  return handle.Result().embeddings;
}

// Applies a vertex permutation to an embedding set: an embedding e of q
// becomes the embedding e' of PermuteVertices(q, perm) with
// e'[perm[v]] = e[v].
EmbeddingSet PermuteEmbeddings(const EmbeddingSet& set,
                               const std::vector<VertexId>& perm) {
  EmbeddingSet out;
  for (const std::vector<VertexId>& e : set) {
    std::vector<VertexId> p(e.size());
    for (VertexId v = 0; v < e.size(); ++v) p[perm[v]] = e[v];
    out.insert(std::move(p));
  }
  return out;
}

// The 200-pair sweep. Four interleaved differential classes:
//   i % 4 == 0  streamed full enumeration, exact set equality
//   i % 4 == 1  count-only, order/pruning option toggles
//   i % 4 == 2  count-only under a small embedding limit
//   i % 4 == 3  homomorphism counts under a safety limit
// Every iteration checks cold vs warm vs permuted-resubmission.
TEST(CacheOracleTest, TwoHundredSeededPairsColdWarmPermuted) {
  Rng data_rng(2026);
  Graph data = RandomDataGraph(150, 400, 4, data_rng);
  ServiceOptions service_options;
  service_options.num_workers = 4;
  service_options.queue_capacity = 1024;
  MatchService service(data, service_options);

  uint64_t expected_hits = 0;
  for (int i = 0; i < 200; ++i) {
    SCOPED_TRACE("pair " + std::to_string(i));
    Rng rng(1000 + static_cast<uint64_t>(i));
    const uint32_t size = 4 + static_cast<uint32_t>(i % 3);
    auto extracted = ExtractRandomWalkQuery(
        data, size, i % 2 == 0 ? 0.0 : 3.0, rng);
    ASSERT_TRUE(extracted.has_value());
    const Graph& query = extracted->query;
    std::vector<VertexId> perm = RandomPermutation(query.NumVertices(), rng);
    Graph permuted = PermuteVertices(query, perm);

    MatchOptions options;
    options.order = (i / 2) % 2 == 0 ? MatchOrder::kPathSize
                                     : MatchOrder::kCandidateSize;
    options.use_failing_sets = (i / 4) % 2 == 0;
    options.leaf_decomposition = (i / 8) % 2 == 0;

    switch (i % 4) {
      case 0: {
        EmbeddingSet cold = StreamAll(service, query, options, true);
        CacheOutcome warm_outcome;
        EmbeddingSet warm =
            StreamAll(service, query, options, false, &warm_outcome);
        EXPECT_NE(warm_outcome, CacheOutcome::kNone);
        ASSERT_EQ(warm, cold);
        // The witness guarantees a nonempty differential.
        EXPECT_TRUE(cold.count(extracted->witness) == 1);
        CacheOutcome hit_outcome;
        EmbeddingSet hit =
            StreamAll(service, query, options, false, &hit_outcome);
        EXPECT_EQ(hit_outcome, CacheOutcome::kHit);
        ASSERT_EQ(hit, cold);
        CacheOutcome perm_outcome;
        EmbeddingSet perm_warm =
            StreamAll(service, permuted, options, false, &perm_outcome);
        EXPECT_EQ(perm_outcome, CacheOutcome::kHit);
        ASSERT_EQ(perm_warm, PermuteEmbeddings(cold, perm));
        for (const std::vector<VertexId>& e : perm_warm) {
          ASSERT_TRUE(IsValidEmbedding(permuted, data, e));
        }
        expected_hits += 2;
        break;
      }
      case 1: {
        const uint64_t cold = CountAll(service, query, options, true);
        EXPECT_EQ(CountAll(service, query, options, false), cold);
        CacheOutcome hit_outcome;
        EXPECT_EQ(CountAll(service, query, options, false, 0,
                           Priority::kNormal, &hit_outcome),
                  cold);
        EXPECT_EQ(hit_outcome, CacheOutcome::kHit);
        EXPECT_EQ(CountAll(service, permuted, options, false), cold);
        expected_hits += 2;
        break;
      }
      case 2: {
        const uint64_t limit = 3 + static_cast<uint64_t>(i % 11);
        const uint64_t cold =
            CountAll(service, query, options, true, limit);
        // Cold and warm may enumerate different *subsets* under a limit
        // (the canonical query's matching order differs), but the count —
        // min(limit, total) — is an invariant.
        EXPECT_EQ(CountAll(service, query, options, false, limit), cold);
        EXPECT_EQ(CountAll(service, query, options, false, limit), cold);
        EXPECT_EQ(CountAll(service, permuted, options, false, limit), cold);
        expected_hits += 2;
        break;
      }
      default: {
        options.injective = false;  // homomorphisms explode; keep a cap
        const uint64_t limit = 20000;
        const uint64_t cold =
            CountAll(service, query, options, true, limit);
        EXPECT_EQ(CountAll(service, query, options, false, limit), cold);
        EXPECT_EQ(CountAll(service, permuted, options, false, limit), cold);
        expected_hits += 1;
        break;
      }
    }
  }

  obs::ServiceMetricsSnapshot m = service.Metrics();
  EXPECT_TRUE(m.cache_enabled);
  EXPECT_EQ(m.cache_hits + m.cache_misses + m.cache_coalesced,
            m.cache_lookups);
  EXPECT_EQ(m.cache_uncacheable, 0u);
  // Permuted resubmissions and repeats must actually hit — at least the
  // per-iteration guaranteed hits (repeats across iterations only add).
  EXPECT_GE(m.cache_hits, expected_hits);
}

// Edge-labeled differential: patterns sampled directly from an
// edge-labeled data graph (wedges with their exact edge labels), so every
// query is positive and the labels constrain the match.
TEST(CacheOracleTest, EdgeLabeledPatternsColdWarmPermuted) {
  Rng rng(77);
  // Random connected skeleton; edge label = (u + w) % 3 keeps labels
  // structural rather than random, so permuted isomorphs stay consistent.
  std::vector<Edge> edges = ErdosRenyiEdges(80, 240, rng);
  ConnectComponents(80, &edges, rng);
  std::vector<Label> labels = ZipfLabels(80, 3, 0.5, rng);
  std::vector<Label> edge_labels(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    edge_labels[i] = (edges[i].first + edges[i].second) % 3;
  }
  Graph data = Graph::FromLabeledEdges(labels, edges, edge_labels);
  ASSERT_TRUE(data.HasNontrivialEdgeLabels());
  MatchService service(data, {});

  int tested = 0;
  for (VertexId v = 0; v < data.NumVertices() && tested < 20; ++v) {
    std::span<const VertexId> nbrs = data.Neighbors(v);
    if (nbrs.size() < 2) continue;
    const VertexId a = nbrs[0];
    const VertexId b = nbrs[nbrs.size() - 1];
    if (a == b) continue;
    SCOPED_TRACE("wedge center " + std::to_string(v));
    Graph query = Graph::FromLabeledEdges(
        {data.original_label(data.label(a)),
         data.original_label(data.label(v)),
         data.original_label(data.label(b))},
        {{0, 1}, {1, 2}},
        {data.EdgeLabelBetween(a, v), data.EdgeLabelBetween(v, b)});
    MatchOptions options;
    EmbeddingSet cold = StreamAll(service, query, options, true);
    ASSERT_FALSE(cold.empty());
    ASSERT_EQ(StreamAll(service, query, options, false), cold);
    std::vector<VertexId> perm = RandomPermutation(3, rng);
    EmbeddingSet perm_warm =
        StreamAll(service, PermuteVertices(query, perm), options, false);
    ASSERT_EQ(perm_warm, PermuteEmbeddings(cold, perm));
    ++tested;
  }
  ASSERT_GE(tested, 10);
  obs::ServiceMetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.cache_hits + m.cache_misses + m.cache_coalesced,
            m.cache_lookups);
}

// The intra-query parallel engine over a shared cached CS: interactive
// non-streaming jobs on a service with intra_query_threads > 1 run
// DafMatchPrepared with that many threads on a hit; counts must match the
// cold build.
TEST(CacheOracleTest, ParallelEngineServesFromCache) {
  Rng rng(501);
  Graph data = RandomDataGraph(200, 700, 3, rng);
  ServiceOptions service_options;
  service_options.num_workers = 2;
  service_options.intra_query_threads = 3;
  MatchService service(data, service_options);

  for (int i = 0; i < 20; ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    auto extracted = ExtractRandomWalkQuery(data, 5, 0.0, rng);
    ASSERT_TRUE(extracted.has_value());
    const Graph& query = extracted->query;
    MatchOptions options;
    const uint64_t cold = CountAll(service, query, options, true, 0,
                                   Priority::kInteractive);
    EXPECT_EQ(CountAll(service, query, options, false, 0,
                       Priority::kInteractive),
              cold);
    CacheOutcome hit_outcome;
    EXPECT_EQ(CountAll(service, query, options, false, 0,
                       Priority::kInteractive, &hit_outcome),
              cold);
    EXPECT_EQ(hit_outcome, CacheOutcome::kHit);
    Graph permuted = PermuteVertices(
        query, RandomPermutation(query.NumVertices(), rng));
    EXPECT_EQ(CountAll(service, permuted, options, false, 0,
                       Priority::kInteractive),
              cold);
  }
  obs::ServiceMetricsSnapshot m = service.Metrics();
  EXPECT_GT(m.counters.parallel_jobs, 0u);
  EXPECT_EQ(m.cache_hits + m.cache_misses + m.cache_coalesced,
            m.cache_lookups);
}

// Concurrent burst of one pattern: whatever mix of miss/coalesced/hit the
// scheduler produces, the counts agree and the classification adds up.
TEST(CacheOracleTest, ConcurrentBurstCoalescesConsistently) {
  Rng rng(9090);
  Graph data = RandomDataGraph(300, 1200, 2, rng);
  ServiceOptions service_options;
  service_options.num_workers = 4;
  MatchService service(data, service_options);

  auto extracted = ExtractRandomWalkQuery(data, 5, 0.0, rng);
  ASSERT_TRUE(extracted.has_value());
  const Graph& query = extracted->query;

  constexpr int kBurst = 16;
  std::vector<JobHandle> handles;
  handles.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    QueryJob job;
    job.query = i % 2 == 0
                    ? query
                    : PermuteVertices(
                          query, RandomPermutation(query.NumVertices(), rng));
    handles.push_back(service.Submit(std::move(job)));
  }
  uint64_t count = 0;
  bool first = true;
  for (JobHandle& h : handles) {
    ASSERT_EQ(h.Wait(), JobStatus::kDone);
    EXPECT_NE(h.cache_outcome(), CacheOutcome::kNone);
    if (first) {
      count = h.Result().embeddings;
      first = false;
    } else {
      EXPECT_EQ(h.Result().embeddings, count);
    }
  }
  obs::ServiceMetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.cache_lookups, static_cast<uint64_t>(kBurst));
  EXPECT_EQ(m.cache_hits + m.cache_misses + m.cache_coalesced,
            m.cache_lookups);
  EXPECT_GE(m.cache_misses, 1u);
  EXPECT_EQ(m.cache_entries, 1u);
}

}  // namespace
}  // namespace daf::service
