// Concurrent-safety suite: many threads running the DAF engine against one
// shared immutable data Graph with pooled MatchContexts, a mixed-load
// stress of the MatchService, and the concurrent read/write oracle: update
// batches racing jobs and subscriptions, where every job's answer must
// equal a from-scratch match at the graph version it reports. Every
// concurrent result must equal the single-threaded ground truth — the
// shared graph and the CS build must be free of hidden mutable state. Run
// these under -DDAF_SANITIZE=thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "daf/cursor.h"
#include "daf/engine.h"
#include "daf/parallel.h"
#include "dyn/delta_graph.h"
#include "dyn/update_batch.h"
#include "service/context_pool.h"
#include "service/match_service.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace daf {
namespace {

using daf::testing::Collector;
using daf::testing::EmbeddingSet;
using daf::testing::IsValidEmbedding;
using daf::testing::MakeClique;
using daf::testing::MakeCycle;
using daf::testing::MakePath;
using daf::testing::MakeStar;
using daf::testing::RandomDataGraph;

std::vector<Graph> TestQueries() {
  std::vector<Graph> queries;
  queries.push_back(MakePath({0, 1, 0}));
  queries.push_back(MakeCycle({0, 1, 2}));
  queries.push_back(MakeClique({0, 0, 0}));
  queries.push_back(MakeStar({1, 0, 0, 2}));
  queries.push_back(MakePath({2, 1, 0, 1}));
  return queries;
}

TEST(ConcurrencyTest, ThreadsSharingOneGraphMatchSingleThreadedCounts) {
  Rng rng(7);
  const Graph data = RandomDataGraph(300, 1200, 3, rng);
  const std::vector<Graph> queries = TestQueries();

  std::vector<uint64_t> expected;
  for (const Graph& q : queries) {
    MatchResult r = DafMatch(q, data);
    ASSERT_TRUE(r.Complete());
    expected.push_back(r.embeddings);
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 5;
  service::ContextPool pool(kThreads);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          service::ContextPool::Lease lease = pool.Acquire();
          MatchResult r = DafMatch(queries[i], data, {}, lease.get());
          if (!r.Complete() || r.embeddings != expected[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, ConcurrentCursorsOverOneGraph) {
  const Graph data = MakeClique(std::vector<Label>(9, 0));
  const Graph query = MakeClique(std::vector<Label>(3, 0));
  MatchResult direct = DafMatch(query, data);
  ASSERT_TRUE(direct.Complete());

  constexpr int kThreads = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      EmbeddingCursor cursor(query, data);
      uint64_t n = 0;
      while (cursor.Next().has_value()) ++n;
      if (n != direct.embeddings) mismatches.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, ParallelEngineInsideConcurrentCallers) {
  // Two layers of parallelism: several caller threads, each running the
  // multi-threaded engine on the same data graph.
  const Graph data = MakeClique(std::vector<Label>(10, 0));
  const Graph query = MakeCycle({0, 0, 0, 0});
  MatchResult direct = DafMatch(query, data);
  ASSERT_TRUE(direct.Complete());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      ParallelMatchResult r = ParallelDafMatch(query, data, {}, 3);
      if (!r.Complete() || r.embeddings != direct.embeddings) {
        mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, ServiceUnderMixedLoadMatchesGroundTruth) {
  Rng rng(11);
  const Graph data = RandomDataGraph(200, 700, 3, rng);
  const std::vector<Graph> queries = TestQueries();
  std::vector<uint64_t> expected;
  for (const Graph& q : queries) {
    expected.push_back(DafMatch(q, data).embeddings);
  }

  service::MatchService service(data, {.num_workers = 4});
  struct Submitted {
    service::JobHandle handle;
    size_t query = 0;
    bool cancelled_by_us = false;
  };
  std::vector<Submitted> jobs;
  for (int i = 0; i < 60; ++i) {
    service::QueryJob job;
    const size_t qi = static_cast<size_t>(i) % queries.size();
    job.query = queries[qi];
    job.priority = static_cast<service::Priority>(i % service::kNumPriorities);
    Submitted s;
    s.query = qi;
    s.cancelled_by_us = (i % 7 == 0);
    s.handle = service.Submit(std::move(job));
    if (s.cancelled_by_us) s.handle.Cancel();
    jobs.push_back(std::move(s));
  }
  service.Drain();
  for (Submitted& s : jobs) {
    ASSERT_TRUE(s.handle.Done());
    const service::JobStatus status = s.handle.Status();
    if (status == service::JobStatus::kDone) {
      // Finished jobs — including ones whose cancel arrived too late —
      // must report the exact single-threaded count.
      EXPECT_EQ(s.handle.Result().embeddings, expected[s.query]);
    } else {
      EXPECT_EQ(status, service::JobStatus::kCancelled);
      EXPECT_TRUE(s.cancelled_by_us);
    }
  }
  obs::ServiceMetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.counters.submitted, 60u);
  EXPECT_EQ(m.counters.completed + m.counters.cancelled, 60u);
}

// One random update batch against `snapshot`: edge inserts and removes,
// occasionally a new vertex (wired in at once) or a vertex removal. Only
// alive vertices are referenced, so every batch is valid.
dyn::UpdateBatch RandomBatch(const Graph& snapshot, Rng& rng) {
  std::vector<VertexId> alive;
  for (VertexId v = 0; v < snapshot.NumVertices(); ++v) {
    if (snapshot.original_label(snapshot.label(v)) !=
        dyn::DeltaGraph::kTombstoneLabel) {
      alive.push_back(v);
    }
  }
  auto pick = [&] { return alive[rng.UniformInt(alive.size())]; };
  dyn::UpdateBatch batch;
  VertexId next_new = snapshot.NumVertices();
  const int ops = 2 + static_cast<int>(rng.UniformInt(6));
  for (int i = 0; i < ops; ++i) {
    const uint64_t p = rng.UniformInt(100);
    if (p < 45) {
      const VertexId u = pick(), v = pick();
      if (u != v) batch.InsertEdge(u, v);
    } else if (p < 85) {
      const VertexId u = pick();
      auto neighbors = snapshot.Neighbors(u);
      if (!neighbors.empty()) {
        batch.RemoveEdge(u, neighbors[rng.UniformInt(neighbors.size())]);
      }
    } else if (p < 96) {
      batch.AddVertex(static_cast<Label>(rng.UniformInt(3)));
      batch.InsertEdge(next_new++, pick());
    } else {
      batch.RemoveVertex(pick());
    }
  }
  return batch;
}

// The concurrent read/write oracle. A writer applies seeded batches while
// reader threads submit pool patterns (plain, limited, streaming,
// cache-bypassing and intra-query-parallel jobs) and a consumer drains two
// subscriptions. A shadow DeltaGraph replays the same batches up front and
// keeps every version's snapshot, so each answer is checked against the
// version the job reports: the count equals min(limit, DafMatch at v),
// streamed embeddings are valid and distinct at v, and each subscription's
// fold equals a fresh match at every version it reports.
TEST(ConcurrencyTest, MixedReadsAndWritesMatchTheirVersion) {
  Rng rng(20261017);
  const Graph data = RandomDataGraph(160, 560, 3, rng);
  const std::vector<Graph> queries = TestQueries();

  constexpr int kBatches = 40;
  dyn::DeltaGraph shadow(data);
  std::vector<std::shared_ptr<const Graph>> at{shadow.Materialize()};
  std::vector<dyn::UpdateBatch> batches;
  for (int i = 0; i < kBatches; ++i) {
    batches.push_back(RandomBatch(*at.back(), rng));
    ASSERT_TRUE(shadow.ApplyBatch(batches.back()).ok);
    at.push_back(shadow.Materialize());
  }

  service::ServiceOptions options;
  options.num_workers = 3;
  options.intra_query_threads = 2;
  options.subscription_queue_batches = kBatches + 1;
  service::MatchService service(data, options);

  const std::vector<Graph> standing = {MakePath({0, 1, 0}),
                                       MakeCycle({0, 1, 2})};
  std::vector<service::SubscriptionHandle> subs;
  for (const Graph& q : standing) {
    service::QueryJob job;
    job.query = q;
    subs.push_back(service.Subscribe(std::move(job)));
    ASSERT_TRUE(subs.back().ok()) << subs.back().error();
    ASSERT_EQ(subs.back().subscribed_version(), 0u);
  }

  struct Read {
    service::JobHandle handle;
    size_t query = 0;
    uint64_t limit = 0;
    bool stream = false;
    uint64_t min_version = 0;  // GraphVersion() just before Submit
    bool after_writes = false;
    std::vector<std::vector<VertexId>> streamed;
  };
  constexpr int kReaders = 3;
  constexpr int kFinalReadsPerReader = 5;
  std::atomic<int> readers_started{0};
  std::atomic<bool> writes_done{false};
  std::mutex reads_mutex;
  std::vector<Read> reads;

  auto submit = [&](uint64_t i, bool after_writes) {
    Read read;
    read.query = static_cast<size_t>(i) % queries.size();
    read.after_writes = after_writes;
    service::QueryJob job;
    job.query = queries[read.query];
    switch ((i / queries.size()) % 5) {
      case 0:
        break;
      case 1:
        read.limit = job.limit = 7;
        break;
      case 2:
        read.stream = job.stream_embeddings = true;
        break;
      case 3:
        job.bypass_cache = true;
        break;
      default:
        job.priority = service::Priority::kInteractive;  // parallel engine
        break;
    }
    read.min_version = service.GraphVersion();
    read.handle = service.Submit(std::move(job));
    for (auto b = read.handle.NextBatch(); !b.empty();
         b = read.handle.NextBatch()) {
      for (auto& e : b) read.streamed.push_back(std::move(e));
    }
    read.handle.Wait();
    std::lock_guard<std::mutex> lock(reads_mutex);
    reads.push_back(std::move(read));
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      uint64_t i = static_cast<uint64_t>(t) * 7;
      submit(i++, false);
      readers_started.fetch_add(1);
      while (!writes_done.load()) submit(i++, false);
      for (int k = 0; k < kFinalReadsPerReader; ++k) submit(i++, true);
    });
  }

  // Drains the subscriptions while batches land; a consumer that saw
  // GraphVersion() == v must find v's deltas already queued. It also
  // scrapes Metrics(), which must not need the writer's lock and must
  // count both subscriptions throughout.
  std::vector<std::vector<service::DeltaBatch>> delivered(subs.size());
  std::atomic<int> early_versions{0};
  std::atomic<int> wrong_active_counts{0};
  std::thread consumer([&] {
    for (bool last = false; !last;) {
      last = writes_done.load();
      if (service.Metrics().dyn_active_subscriptions != subs.size()) {
        wrong_active_counts.fetch_add(1);
      }
      for (size_t s = 0; s < subs.size(); ++s) {
        const uint64_t seen = service.GraphVersion();
        for (service::DeltaBatch& b : subs[s].Drain()) {
          delivered[s].push_back(std::move(b));
        }
        const uint64_t queued =
            delivered[s].empty() ? 0 : delivered[s].back().version;
        if (queued < seen) early_versions.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  std::vector<service::UpdateOutcome> outcomes;
  while (readers_started.load() < kReaders) std::this_thread::yield();
  for (const dyn::UpdateBatch& batch : batches) {
    outcomes.push_back(service.ApplyUpdates(batch));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  writes_done.store(true);
  for (std::thread& t : readers) t.join();
  consumer.join();
  service.Drain();

  for (int i = 0; i < kBatches; ++i) {
    ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].version, static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(service.GraphVersion(), static_cast<uint64_t>(kBatches));
  EXPECT_EQ(service.Snapshot()->ToCsrParts().adjacency,
            at.back()->ToCsrParts().adjacency);
  EXPECT_EQ(early_versions.load(), 0)
      << "a version became visible before its deltas were queued";
  EXPECT_EQ(wrong_active_counts.load(), 0);

  // Every read against the version it reports.
  std::map<std::pair<size_t, uint64_t>, uint64_t> truth;
  auto full_count = [&](size_t q, uint64_t v) {
    auto [it, fresh] = truth.try_emplace({q, v}, 0);
    if (fresh) {
      const MatchResult r = DafMatch(queries[q], *at[v]);
      EXPECT_TRUE(r.Complete());
      it->second = r.embeddings;
    }
    return it->second;
  };
  std::set<uint64_t> versions_seen;
  for (Read& read : reads) {
    const uint64_t v = read.handle.graph_version();
    SCOPED_TRACE("job " + std::to_string(read.handle.id()) + " query " +
                 std::to_string(read.query) + " at v" + std::to_string(v));
    ASSERT_EQ(read.handle.Status(), service::JobStatus::kDone);
    ASSERT_LE(v, static_cast<uint64_t>(kBatches));
    EXPECT_GE(v, read.min_version);
    if (read.after_writes) {
      EXPECT_EQ(v, static_cast<uint64_t>(kBatches));
    }
    versions_seen.insert(v);
    const uint64_t full = full_count(read.query, v);
    const uint64_t want = read.limit != 0 ? std::min(read.limit, full) : full;
    EXPECT_EQ(read.handle.Result().embeddings, want);
    if (read.stream) {
      EXPECT_EQ(read.streamed.size(), read.handle.Result().embeddings);
      const EmbeddingSet distinct(read.streamed.begin(), read.streamed.end());
      EXPECT_EQ(distinct.size(), read.streamed.size());
      for (const auto& e : read.streamed) {
        ASSERT_TRUE(IsValidEmbedding(queries[read.query], *at[v], e));
      }
    }
  }
  EXPECT_GE(versions_seen.size(), 2u);

  // Every subscription's fold at every version it reports.
  for (size_t s = 0; s < subs.size(); ++s) {
    SCOPED_TRACE("subscription " + std::to_string(s));
    for (service::DeltaBatch& b : subs[s].Drain()) {
      delivered[s].push_back(std::move(b));
    }
    ASSERT_EQ(delivered[s].size(), static_cast<size_t>(kBatches));
    EmbeddingSet live;
    MatchOptions collect;
    collect.callback = Collector(&live);
    ASSERT_TRUE(DafMatch(standing[s], *at[0], collect).Complete());
    for (size_t i = 0; i < delivered[s].size(); ++i) {
      service::DeltaBatch& b = delivered[s][i];
      ASSERT_EQ(b.version, i + 1);
      ASSERT_FALSE(b.resync);
      for (service::EmbeddingDelta& d : b.deltas) {
        if (d.created) {
          ASSERT_TRUE(live.insert(std::move(d.embedding)).second);
        } else {
          ASSERT_EQ(live.erase(d.embedding), 1u);
        }
      }
      EmbeddingSet fresh;
      collect.callback = Collector(&fresh);
      ASSERT_TRUE(DafMatch(standing[s], *at[b.version], collect).Complete());
      ASSERT_EQ(live, fresh) << "fold diverged at v" << b.version;
    }
  }
}

}  // namespace
}  // namespace daf
