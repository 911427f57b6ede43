#include "daf/candidate_space.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "baselines/bruteforce.h"
#include "daf/engine.h"
#include "graph/generators.h"
#include "graph/query_extract.h"
#include "graph/seed_bucket.h"
#include "tests/test_util.h"

namespace daf {
namespace {

using daf::testing::Collector;
using daf::testing::EmbeddingSet;
using daf::testing::MakePath;
using daf::testing::RandomDataGraph;

// Structural invariants of any CS: candidates carry the right label and
// degree, edge lists are sorted index lists, every CS edge is a data edge,
// and the CS edges are complete w.r.t. condition (2) of the definition.
void CheckCsInvariants(const Graph& query, const QueryDag& dag,
                       const Graph& data, const CandidateSpace& cs) {
  for (uint32_t u = 0; u < query.NumVertices(); ++u) {
    auto cands = cs.Candidates(u);
    EXPECT_TRUE(std::is_sorted(cands.begin(), cands.end()));
    for (VertexId v : cands) {
      EXPECT_EQ(data.label(v), dag.DataLabel(u));
      EXPECT_GE(data.degree(v), query.degree(u));
    }
  }
  for (uint32_t u = 0; u < query.NumVertices(); ++u) {
    const auto& children = dag.Children(u);
    for (uint32_t pos = 0; pos < children.size(); ++pos) {
      VertexId c = children[pos];
      uint32_t edge_id = dag.ChildEdgeId(u, pos);
      for (uint32_t ip = 0; ip < cs.NumCandidates(u); ++ip) {
        auto targets = cs.EdgeNeighbors(edge_id, ip);
        EXPECT_TRUE(std::is_sorted(targets.begin(), targets.end()));
        VertexId vp = cs.CandidateVertex(u, ip);
        for (uint32_t ic : targets) {
          ASSERT_LT(ic, cs.NumCandidates(c));
          EXPECT_TRUE(data.HasEdge(vp, cs.CandidateVertex(c, ic)));
        }
        // Completeness: every adjacent candidate pair is materialized.
        size_t expected = 0;
        for (uint32_t ic = 0; ic < cs.NumCandidates(c); ++ic) {
          if (data.HasEdge(vp, cs.CandidateVertex(c, ic))) ++expected;
        }
        EXPECT_EQ(targets.size(), expected);
      }
    }
  }
}

TEST(CandidateSpaceTest, SoundnessOnRandomInstances) {
  Rng rng(61);
  for (int trial = 0; trial < 20; ++trial) {
    Graph data = RandomDataGraph(60, 150 + rng.UniformInt(150), 4, rng);
    auto extracted =
        ExtractRandomWalkQuery(data, 4 + rng.UniformInt(5), -1.0, rng);
    if (!extracted) continue;
    const Graph& query = extracted->query;
    QueryDag dag = QueryDag::Build(query, data);
    CandidateSpace cs = CandidateSpace::Build(query, dag, data);
    CheckCsInvariants(query, dag, data, cs);

    // Every true embedding survives every candidate set (Definition 4.2).
    EmbeddingSet embeddings;
    baselines::MatcherOptions opts;
    opts.callback = Collector(&embeddings);
    baselines::BruteForceMatch(query, data, opts);
    for (const auto& embedding : embeddings) {
      for (uint32_t u = 0; u < query.NumVertices(); ++u) {
        auto cands = cs.Candidates(u);
        EXPECT_TRUE(
            std::binary_search(cands.begin(), cands.end(), embedding[u]))
            << "embedding vertex dropped from C(" << u << ")";
      }
    }
  }
}

TEST(CandidateSpaceTest, RefinementOnlyShrinksCandidates) {
  Rng rng(62);
  Graph data = RandomDataGraph(80, 240, 3, rng);
  auto extracted = ExtractRandomWalkQuery(data, 8, -1.0, rng);
  ASSERT_TRUE(extracted.has_value());
  const Graph& query = extracted->query;
  QueryDag dag = QueryDag::Build(query, data);
  uint64_t previous = ~0ull;
  for (int steps = 0; steps <= 5; ++steps) {
    CandidateSpace cs = CandidateSpace::Build(query, dag, data, steps);
    EXPECT_LE(cs.TotalCandidates(), previous);
    previous = cs.TotalCandidates();
  }
}

TEST(CandidateSpaceTest, DagGraphDpRemovesDeadEnds) {
  // Query: path A-B-C-D. Data: good chain a-b1-c1-d plus a decoy branch
  // a-b2-c2 where c2 has no D-neighbor. b2 passes every *local* filter
  // (label, degree, MND, NLF: it has an A- and a C-neighbor); only the
  // DAG-graph DP recurrence — which needs a surviving C-child candidate,
  // and c2 dies because it lacks a D-neighbor — can eliminate it. This is
  // exactly the 2-hop propagation local filters cannot see.
  Graph query = MakePath({0, 1, 2, 3});
  Graph data = Graph::FromEdges({0, 1, 2, 3, 1, 2},
                                {{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 5}});
  QueryDag dag = QueryDag::BuildWithRoot(query, data, 0);
  CandidateSpace unrefined = CandidateSpace::Build(query, dag, data, 0);
  CandidateSpace refined = CandidateSpace::Build(query, dag, data, 3);
  const uint32_t ub = 1;  // query vertex with label B
  auto unrefined_b = unrefined.Candidates(ub);
  EXPECT_TRUE(std::binary_search(unrefined_b.begin(), unrefined_b.end(), 4u))
      << "decoy b2 should survive the local filters";
  ASSERT_EQ(refined.NumCandidates(ub), 1u);
  EXPECT_EQ(refined.CandidateVertex(ub, 0), 1u);
}

TEST(CandidateSpaceTest, NlfFilterPrunesAtSeedTime) {
  // Query center needs two B-neighbors; data vertex x has degree 2 but
  // only one B-neighbor, so only NLF (not the degree filter) rejects it.
  Graph query = MakePath({1, 0, 1});  // B - A - B
  Graph data = Graph::FromEdges(
      {0, 1, 2, 0, 1, 1},
      {{0, 1}, {0, 2}, {3, 4}, {3, 5}});  // x-B, x-C ; y-B, y-B
  QueryDag dag = QueryDag::Build(query, data);
  CandidateSpace cs = CandidateSpace::Build(query, dag, data, 0);
  const uint32_t center = 1;
  ASSERT_EQ(cs.NumCandidates(center), 1u);
  EXPECT_EQ(cs.CandidateVertex(center, 0), 3u);
}

TEST(CandidateSpaceTest, MissingLabelEmptiesCandidates) {
  Graph query = MakePath({0, 9});
  Graph data = MakePath({0, 0, 0});
  QueryDag dag = QueryDag::Build(query, data);
  CandidateSpace cs = CandidateSpace::Build(query, dag, data);
  bool some_empty = false;
  for (uint32_t u = 0; u < 2; ++u) {
    some_empty |= cs.NumCandidates(u) == 0;
  }
  EXPECT_TRUE(some_empty);
}

TEST(CandidateSpaceTest, SingleVertexQuery) {
  Graph query = Graph::FromEdges({5}, {});
  Graph data = Graph::FromEdges({5, 5, 6}, {{0, 1}, {1, 2}});
  QueryDag dag = QueryDag::Build(query, data);
  CandidateSpace cs = CandidateSpace::Build(query, dag, data);
  EXPECT_EQ(cs.NumCandidates(0), 2u);
  EXPECT_EQ(cs.TotalCandidates(), 2u);
  EXPECT_EQ(cs.TotalEdges(), 0u);
}

TEST(CandidateSpaceTest, DisablingFiltersOnlyGrowsCandidates) {
  Rng rng(64);
  for (int trial = 0; trial < 10; ++trial) {
    Graph data = RandomDataGraph(60, 150 + rng.UniformInt(100), 3, rng);
    auto extracted =
        ExtractRandomWalkQuery(data, 5 + rng.UniformInt(4), -1.0, rng);
    if (!extracted) continue;
    QueryDag dag = QueryDag::Build(extracted->query, data);
    CandidateSpace::Options all_on;
    CandidateSpace::Options no_nlf;
    no_nlf.use_nlf_filter = false;
    CandidateSpace::Options no_mnd;
    no_mnd.use_mnd_filter = false;
    CandidateSpace::Options none;
    none.use_nlf_filter = false;
    none.use_mnd_filter = false;
    uint64_t base =
        CandidateSpace::Build(extracted->query, dag, data, all_on)
            .TotalCandidates();
    EXPECT_LE(base, CandidateSpace::Build(extracted->query, dag, data,
                                          no_nlf)
                        .TotalCandidates());
    EXPECT_LE(base, CandidateSpace::Build(extracted->query, dag, data,
                                          no_mnd)
                        .TotalCandidates());
    EXPECT_LE(base, CandidateSpace::Build(extracted->query, dag, data, none)
                        .TotalCandidates());
  }
}

TEST(CandidateSpaceTest, FiltersOffStillSound) {
  Rng rng(65);
  Graph data = RandomDataGraph(50, 140, 3, rng);
  auto extracted = ExtractRandomWalkQuery(data, 6, -1.0, rng);
  ASSERT_TRUE(extracted.has_value());
  const Graph& query = extracted->query;
  EmbeddingSet embeddings;
  baselines::MatcherOptions brute;
  brute.callback = Collector(&embeddings);
  baselines::BruteForceMatch(query, data, brute);
  QueryDag dag = QueryDag::Build(query, data);
  CandidateSpace::Options none;
  none.use_nlf_filter = false;
  none.use_mnd_filter = false;
  CandidateSpace cs = CandidateSpace::Build(query, dag, data, none);
  for (const auto& embedding : embeddings) {
    for (uint32_t u = 0; u < query.NumVertices(); ++u) {
      auto cands = cs.Candidates(u);
      EXPECT_TRUE(
          std::binary_search(cands.begin(), cands.end(), embedding[u]));
    }
  }
}

TEST(CandidateSpaceTest, HomomorphismModeKeepsCollapsedImages) {
  // Star query B-A-B; data path A-B. In injective mode the B-leaf demand
  // (NLF count 2) empties C(u_A); in homomorphism mode the data A vertex
  // must survive because the hom collapsing both leaves onto B exists.
  Graph query = MakePath({1, 0, 1});
  Graph data = MakePath({0, 1});
  QueryDag dag = QueryDag::Build(query, data);
  CandidateSpace::Options hom;
  hom.injective = false;
  CandidateSpace cs = CandidateSpace::Build(query, dag, data, hom);
  uint32_t center = 1;  // label A
  EXPECT_EQ(cs.NumCandidates(center), 1u);
  CandidateSpace strict = CandidateSpace::Build(query, dag, data);
  EXPECT_EQ(strict.NumCandidates(center), 0u);
}

TEST(CandidateSpaceTest, TotalsAreConsistent) {
  Rng rng(63);
  Graph data = RandomDataGraph(70, 200, 4, rng);
  auto extracted = ExtractRandomWalkQuery(data, 6, -1.0, rng);
  ASSERT_TRUE(extracted.has_value());
  QueryDag dag = QueryDag::Build(extracted->query, data);
  CandidateSpace cs = CandidateSpace::Build(extracted->query, dag, data);
  uint64_t total = 0;
  for (uint32_t u = 0; u < extracted->query.NumVertices(); ++u) {
    total += cs.NumCandidates(u);
  }
  EXPECT_EQ(total, cs.TotalCandidates());
}

// --- Differential seeding: the CS seeded from the graph's seeding index
// against a reference computed from Graph's public per-vertex API only
// (label, degree, MaxNeighborDegree, NeighborLabelCount, HasEdgeWithLabel).

struct ReferenceCs {
  std::vector<std::vector<VertexId>> candidates;  // per query vertex
  // Per DAG edge id, per parent candidate: child candidate indices.
  std::vector<std::vector<std::vector<uint32_t>>> edges;
};

// The paper's CS by definition: C_ini(u) under the local filters, then
// Recurrence (1) in the build's pass order, then every CS edge.
ReferenceCs BuildReferenceCs(const Graph& query, const QueryDag& dag,
                             const Graph& data,
                             const CandidateSpace::Options& o) {
  const uint32_t n = query.NumVertices();
  ReferenceCs ref;
  ref.candidates.resize(n);
  for (VertexId u = 0; u < n; ++u) {
    if (dag.DataLabel(u) == kNoSuchLabel) continue;
    std::map<Label, uint32_t> need;  // data label -> query NLF count
    bool label_missing = false;
    uint32_t max_nbr_deg = 0;
    for (VertexId w : query.Neighbors(u)) {
      ++need[dag.DataLabel(w)];
      label_missing |= dag.DataLabel(w) == kNoSuchLabel;
      max_nbr_deg = std::max(max_nbr_deg, query.degree(w));
    }
    if (o.use_nlf_filter && label_missing) continue;
    for (VertexId v = 0; v < data.NumVertices(); ++v) {
      if (data.label(v) != dag.DataLabel(u)) continue;
      if (o.injective && data.degree(v) < query.degree(u)) continue;
      if (o.injective && o.use_mnd_filter &&
          data.MaxNeighborDegree(v) < max_nbr_deg) {
        continue;
      }
      bool nlf_ok = true;
      for (const auto& [label, count] : need) {
        if (o.use_nlf_filter && data.NeighborLabelCount(v, label) <
                                    (o.injective ? count : 1u)) {
          nlf_ok = false;
        }
      }
      if (nlf_ok) ref.candidates[u].push_back(v);
    }
  }
  auto has_edge = [&](VertexId u, VertexId v, VertexId uc, VertexId vc) {
    return data.HasEdgeWithLabel(v, vc, query.EdgeLabelBetween(u, uc));
  };
  auto adjacent_to_some = [&](VertexId u, VertexId v, VertexId uc) {
    for (VertexId vc : ref.candidates[uc]) {
      if (has_edge(u, v, uc, vc)) return true;
    }
    return false;
  };
  const std::vector<VertexId>& topo = dag.TopologicalOrder();
  for (int step = 0; step < o.refinement_steps; ++step) {
    const bool reversed = step % 2 == 0;
    for (uint32_t pos = 0; pos < n; ++pos) {
      const VertexId u = reversed ? topo[pos] : topo[n - 1 - pos];
      const std::vector<VertexId>& dp_children =
          reversed ? dag.Parents(u) : dag.Children(u);
      std::vector<VertexId> kept;
      for (VertexId v : ref.candidates[u]) {
        bool survives = true;
        for (VertexId uc : dp_children) {
          survives = survives && adjacent_to_some(u, v, uc);
        }
        if (survives) kept.push_back(v);
      }
      ref.candidates[u] = std::move(kept);
    }
  }
  ref.edges.resize(dag.NumEdges());
  for (VertexId p = 0; p < n; ++p) {
    for (uint32_t pos = 0; pos < dag.Children(p).size(); ++pos) {
      const VertexId c = dag.Children(p)[pos];
      auto& lists = ref.edges[dag.ChildEdgeId(p, pos)];
      for (VertexId vp : ref.candidates[p]) {
        std::vector<uint32_t> targets;
        for (uint32_t ic = 0; ic < ref.candidates[c].size(); ++ic) {
          if (has_edge(p, vp, c, ref.candidates[c][ic])) targets.push_back(ic);
        }
        lists.push_back(std::move(targets));
      }
    }
  }
  return ref;
}

void ExpectEqualsReference(const ReferenceCs& ref, const CandidateSpace& cs,
                           const QueryDag& dag) {
  for (VertexId u = 0; u < ref.candidates.size(); ++u) {
    auto cands = cs.Candidates(u);
    ASSERT_EQ(std::vector<VertexId>(cands.begin(), cands.end()),
              ref.candidates[u])
        << "C(" << u << ")";
  }
  ASSERT_EQ(cs.TotalEdges(), [&] {
    uint64_t total = 0;
    for (const auto& lists : ref.edges) {
      for (const auto& targets : lists) total += targets.size();
    }
    return total;
  }());
  for (uint32_t e = 0; e < dag.NumEdges(); ++e) {
    for (uint32_t ip = 0; ip < ref.edges[e].size(); ++ip) {
      auto targets = cs.EdgeNeighbors(e, ip);
      ASSERT_EQ(std::vector<uint32_t>(targets.begin(), targets.end()),
                ref.edges[e][ip])
          << "edge " << e << " parent candidate " << ip;
    }
  }
}

// A query with the graph's structure and edge labels but new vertex labels.
Graph Relabeled(const Graph& g, std::vector<Label> labels) {
  std::vector<Edge> edges;
  std::vector<Label> edge_labels;
  for (const auto& [edge, label] : g.LabeledEdgeList()) {
    edges.push_back(edge);
    edge_labels.push_back(label);
  }
  return Graph::FromLabeledEdges(std::move(labels), edges, edge_labels);
}

// Seeded random data graphs: `num_labels` vertex labels (Zipf), and edge
// labels from {0, 1, 2} when `edge_labelled`.
Graph RandomSeedingGraph(uint32_t n, uint64_t m, uint32_t num_labels,
                         bool edge_labelled, Rng& rng) {
  std::vector<Edge> edges = ErdosRenyiEdges(n, m, rng);
  ConnectComponents(n, &edges, rng);
  std::vector<Label> edge_labels;
  if (edge_labelled) {
    for (size_t i = 0; i < edges.size(); ++i) {
      edge_labels.push_back(static_cast<Label>(rng.UniformInt(3)));
    }
  }
  return Graph::FromLabeledEdges(ZipfLabels(n, num_labels, 0.5, rng), edges,
                                 edge_labels);
}

TEST(SeedIndexDifferentialTest, IndexedCsEqualsPublicApiReference) {
  Rng rng(2701);
  struct Shape {
    uint32_t n;
    uint32_t num_labels;
    bool edge_labelled;
  };
  // 150 labels on 400 vertices: bits l and l + 64 of the signature both
  // occur, so signature survivors must still fail the exact NLF merge.
  const Shape shapes[] = {
      {80, 4, false}, {120, 8, true}, {400, 150, false}, {300, 90, true}};
  CandidateSpace::Options variants[5];
  variants[1].injective = false;
  variants[2].use_nlf_filter = false;
  variants[3].use_mnd_filter = false;
  variants[4].refinement_steps = 0;
  int compared = 0;
  for (const Shape& shape : shapes) {
    for (int trial = 0; trial < 6; ++trial) {
      Graph data = RandomSeedingGraph(shape.n, shape.n * 4, shape.num_labels,
                                      shape.edge_labelled, rng);
      auto extracted =
          ExtractRandomWalkQuery(data, 4 + rng.UniformInt(6), -1.0, rng);
      if (!extracted) continue;
      std::vector<Graph> queries{extracted->query};
      // A relabelled copy, with labels the data may lack.
      std::vector<Label> labels;
      for (VertexId u = 0; u < extracted->query.NumVertices(); ++u) {
        labels.push_back(
            static_cast<Label>(rng.UniformInt(shape.num_labels + 2)));
      }
      queries.push_back(Relabeled(extracted->query, std::move(labels)));
      for (const Graph& query : queries) {
        QueryDag dag = QueryDag::Build(query, data);
        for (uint32_t u = 0; u < query.NumVertices(); ++u) {
          uint32_t brute = 0;
          for (VertexId v = 0; v < data.NumVertices(); ++v) {
            brute += dag.DataLabel(u) != kNoSuchLabel &&
                     data.label(v) == dag.DataLabel(u) &&
                     data.degree(v) >= query.degree(u);
          }
          EXPECT_EQ(dag.InitialCandidateCount(u), brute) << "u=" << u;
        }
        for (const CandidateSpace::Options& o : variants) {
          ReferenceCs ref = BuildReferenceCs(query, dag, data, o);
          CandidateSpace indexed = CandidateSpace::Build(query, dag, data, o);
          ExpectEqualsReference(ref, indexed, dag);
          ++compared;
        }
      }
    }
  }
  EXPECT_GE(compared, 150);
}

TEST(SeedIndexDifferentialTest, SignatureCollisionStillRunsExactNlf) {
  // 70 labels 0..69, one isolated-ish vertex each, chained into a path so
  // the graph stays connected. x (label 0) has a neighbor with label 65,
  // whose signature bit 65 & 63 == 1 is label 1's: x passes the signature
  // test for a query that needs a label-1 neighbor and must be rejected by
  // the exact run merge. y (label 0) really has a label-1 neighbor.
  std::vector<Label> labels;
  std::vector<Edge> edges;
  for (Label l = 0; l < 70; ++l) labels.push_back(l);
  for (VertexId v = 1; v < 70; ++v) edges.emplace_back(v - 1, v);
  const VertexId x = 70;
  const VertexId y = 71;
  labels.push_back(0);
  labels.push_back(0);
  edges.emplace_back(x, 65);
  edges.emplace_back(y, 1);
  Graph data = Graph::FromEdges(labels, edges);
  Graph query = MakePath({0, 1});
  QueryDag dag = QueryDag::Build(query, data);
  obs::CsProfile profile;
  CandidateSpace::Options options;
  options.refinement_steps = 0;
  options.profile = &profile;
  CandidateSpace cs = CandidateSpace::Build(query, dag, data, options);
  const SeedBucket& bucket = data.SeedBucketOf(data.label(x));
  const auto it = std::find_if(bucket.entries.begin(), bucket.entries.end(),
                               [&](const SeedEntry& e) { return e.id == x; });
  ASSERT_NE(it, bucket.entries.end());
  EXPECT_NE(it->signature & (uint64_t{1} << data.label(1)), 0u);
  auto c0 = cs.Candidates(0);
  EXPECT_EQ(std::vector<VertexId>(c0.begin(), c0.end()),
            (std::vector<VertexId>{0, y}));
  EXPECT_GE(profile.nlf_rejected, 1u);
}

TEST(SeedIndexTest, BucketsAreSharedByCopiesAndMatchTheGraph) {
  Rng rng(2702);
  Graph data = RandomDataGraph(90, 300, 5, rng);
  Graph copy = data;
  for (Label l = 0; l < data.NumLabels(); ++l) {
    double build_ms = 0;
    const SeedBucket& bucket = copy.SeedBucketOf(l, &build_ms);
    EXPECT_GT(build_ms, 0.0);
    double again_ms = 0;
    EXPECT_EQ(&data.SeedBucketOf(l, &again_ms), &bucket);
    EXPECT_EQ(again_ms, 0.0);
    auto vertices = data.VerticesWithLabel(l);
    ASSERT_EQ(bucket.entries.size(), vertices.size());
    for (size_t i = 0; i < vertices.size(); ++i) {
      const SeedEntry& e = bucket.entries[i];
      EXPECT_EQ(e.id, vertices[i]);
      EXPECT_EQ(e.degree, data.degree(e.id));
      EXPECT_EQ(e.max_neighbor_degree, data.MaxNeighborDegree(e.id));
      uint32_t total = 0;
      for (const NlfRun& run : bucket.Runs(i)) {
        EXPECT_EQ(run.count, data.NeighborLabelCount(e.id, run.label));
        EXPECT_NE(e.signature & (uint64_t{1} << (run.label & 63)), 0u);
        total += run.count;
      }
      EXPECT_EQ(total, e.degree);
    }
    EXPECT_TRUE(std::is_sorted(bucket.degrees_desc.rbegin(),
                               bucket.degrees_desc.rend()));
  }
}

TEST(SeedIndexRaceTest, ConcurrentFirstBuildsMatchSerial) {
  // Four threads start DafMatch together on one graph whose seeding index
  // is still empty, two of them through copies (which share the index), so
  // every bucket's first build races. The serial answers come from an
  // identical graph built separately, whose index this test never touches.
  auto make_graph = [] {
    Rng rng(2703);
    return RandomDataGraph(1500, 6000, 6, rng);
  };
  const Graph reference = make_graph();
  Rng rng(2704);
  std::vector<Graph> queries;
  while (queries.size() < 8) {
    auto extracted =
        ExtractRandomWalkQuery(reference, 4 + rng.UniformInt(5), -1.0, rng);
    if (extracted) queries.push_back(std::move(extracted->query));
  }
  MatchOptions options;
  options.limit = 1000;
  std::vector<MatchResult> serial;
  for (const Graph& query : queries) {
    serial.push_back(DafMatch(query, reference, options));
  }

  const Graph shared = make_graph();
  const Graph copies[] = {shared, shared};
  const Graph* views[] = {&shared, &shared, &copies[0], &copies[1]};
  constexpr int kThreads = 4;
  std::vector<std::vector<MatchResult>> results(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      // Each thread walks the queries from a different start.
      for (size_t i = 0; i < queries.size(); ++i) {
        const size_t q = (i + 2 * t) % queries.size();
        results[t].push_back(DafMatch(queries[q], *views[t], options));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < queries.size(); ++i) {
      const size_t q = (i + 2 * t) % queries.size();
      const MatchResult& got = results[t][i];
      ASSERT_TRUE(got.ok);
      EXPECT_EQ(got.embeddings, serial[q].embeddings) << "t=" << t;
      EXPECT_EQ(got.recursive_calls, serial[q].recursive_calls);
      EXPECT_EQ(got.cs_candidates, serial[q].cs_candidates);
      EXPECT_EQ(got.cs_edges, serial[q].cs_edges);
    }
  }
}

}  // namespace
}  // namespace daf
