// MatchService dynamic-graph tests: ApplyUpdates + Subscribe delta
// streaming, per-version snapshot isolation for ordinary jobs, the publish
// invariants of the {snapshot, version} pair, query-cache invalidation
// across graph versions (a stale hit must be impossible), bounded-queue
// resync semantics, the delta_apply / subscriber_notify fault points, and
// the dynamics metrics block.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "dyn/delta_graph.h"
#include "dyn/update_batch.h"
#include "service/match_service.h"
#include "tests/test_util.h"
#include "util/fault_inject.h"

namespace daf::service {
namespace {

using daf::testing::Collector;
using daf::testing::EmbeddingSet;
using daf::testing::MakeCycle;
using daf::testing::MakePath;

class DynamicServiceTest : public ::testing::Test {
 protected:
  ~DynamicServiceTest() override { FaultInjector::Disarm(); }
};

// Data: labeled path 0-1-2 (labels 1-2-3) plus a detached label-1 vertex 3.
// The standing path query 1-2-3 has exactly one embedding initially; edge
// (1, 3) creates a second one through v3.
Graph SmallData() {
  return Graph::FromEdges({1, 2, 3, 1}, {{0, 1}, {1, 2}});
}

QueryJob PathJob() {
  QueryJob job;
  job.query = MakePath({1, 2, 3});
  return job;
}

// Folds every pending DeltaBatch of `handle` into `set` (created inserts,
// destroyed erases); fails the test on a resync marker.
void FoldDeltas(SubscriptionHandle& handle, EmbeddingSet* set) {
  for (DeltaBatch& batch : handle.Drain()) {
    ASSERT_FALSE(batch.resync) << "unexpected resync at v" << batch.version;
    for (EmbeddingDelta& d : batch.deltas) {
      if (d.created) {
        EXPECT_TRUE(set->insert(std::move(d.embedding)).second);
      } else {
        EXPECT_EQ(set->erase(d.embedding), 1u);
      }
    }
  }
}

EmbeddingSet MatchNow(MatchService& service, Graph query) {
  QueryJob job;
  job.query = std::move(query);
  job.stream_embeddings = true;
  JobHandle h = service.Submit(std::move(job));
  EmbeddingSet out;
  for (;;) {
    auto batch = h.NextBatch();
    if (batch.empty()) break;
    for (auto& e : batch) out.insert(std::move(e));
  }
  EXPECT_EQ(h.Wait(), JobStatus::kDone);
  return out;
}

TEST_F(DynamicServiceTest, SubscribeStreamsExactDeltas) {
  MatchService service(SmallData(), {.num_workers = 2});
  SubscriptionHandle sub = service.Subscribe(PathJob());
  ASSERT_TRUE(sub.ok()) << sub.error();
  EXPECT_EQ(sub.subscribed_version(), 0u);
  EXPECT_EQ(service.ActiveSubscriptions(), 1u);

  // Initial result set at the subscription version.
  EmbeddingSet live = MatchNow(service, MakePath({1, 2, 3}));
  EXPECT_EQ(live.size(), 1u);  // 0-1-2

  // v1: the detached label-1 vertex connects -> one more embedding.
  dyn::UpdateBatch b1;
  b1.InsertEdge(1, 3);
  UpdateOutcome o1 = service.ApplyUpdates(b1);
  ASSERT_TRUE(o1.ok) << o1.error;
  EXPECT_EQ(o1.version, 1u);
  EXPECT_EQ(o1.embeddings_created, 1u);
  EXPECT_EQ(o1.embeddings_destroyed, 0u);
  FoldDeltas(sub, &live);
  EXPECT_EQ(live, MatchNow(service, MakePath({1, 2, 3})));

  // v2: removing (1, 2) kills both embeddings through it.
  dyn::UpdateBatch b2;
  b2.RemoveEdge(1, 2);
  UpdateOutcome o2 = service.ApplyUpdates(b2);
  ASSERT_TRUE(o2.ok) << o2.error;
  EXPECT_EQ(o2.embeddings_destroyed, 2u);
  FoldDeltas(sub, &live);
  EXPECT_EQ(live, MatchNow(service, MakePath({1, 2, 3})));
  EXPECT_TRUE(live.empty());

  sub.Unsubscribe();
  EXPECT_FALSE(sub.active());
  dyn::UpdateBatch b3;
  b3.InsertEdge(1, 2);
  ASSERT_TRUE(service.ApplyUpdates(b3).ok);
  EXPECT_EQ(service.ActiveSubscriptions(), 0u);
  EXPECT_EQ(sub.PendingBatches(), 0u);  // swept before notification
}

TEST_F(DynamicServiceTest, SubscribeRejectsBadQueries) {
  MatchService service(SmallData(), {.num_workers = 1});
  // Disconnected pattern.
  QueryJob job;
  job.query = Graph::FromEdges({1, 1, 1, 1}, {{0, 1}, {2, 3}});
  SubscriptionHandle sub = service.Subscribe(std::move(job));
  EXPECT_FALSE(sub.ok());
  EXPECT_NE(sub.error().find("connected"), std::string::npos);
  EXPECT_EQ(service.ActiveSubscriptions(), 0u);

  // Reserved engine side channels.
  QueryJob chan = PathJob();
  chan.options.callback = [](std::span<const VertexId>) { return true; };
  SubscriptionHandle sub2 = service.Subscribe(std::move(chan));
  EXPECT_FALSE(sub2.ok());
}

TEST_F(DynamicServiceTest, JobsSeeTheVersionTheyWereDispatchedAt) {
  MatchService service(SmallData(), {.num_workers = 2});
  EXPECT_EQ(MatchNow(service, MakePath({1, 2, 3})).size(), 1u);

  dyn::UpdateBatch batch;
  batch.AddVertex(3).InsertEdge(1, 4);
  ASSERT_TRUE(service.ApplyUpdates(batch).ok);
  EXPECT_EQ(service.GraphVersion(), 1u);
  EXPECT_EQ(service.Snapshot()->NumVertices(), 5u);
  EXPECT_EQ(MatchNow(service, MakePath({1, 2, 3})).size(), 2u);
}

TEST_F(DynamicServiceTest, ApplyUpdatesPublishesTheVersionItReturns) {
  MatchService service(SmallData(), {.num_workers = 1});
  SubscriptionHandle sub = service.Subscribe(PathJob());
  ASSERT_TRUE(sub.ok());
  dyn::DeltaGraph shadow(SmallData());
  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE("batch " + std::to_string(i));
    dyn::UpdateBatch batch;
    if (i % 2 == 0) {
      batch.InsertEdge(1, 3);
    } else {
      batch.RemoveEdge(1, 3);
    }
    if (i == 2) batch.AddVertex(1).InsertEdge(4, 1);
    const UpdateOutcome out = service.ApplyUpdates(batch);
    ASSERT_TRUE(out.ok) << out.error;
    ASSERT_TRUE(shadow.ApplyBatch(batch).ok);
    ASSERT_EQ(out.version, shadow.version());

    // When ApplyUpdates returns v, v is published: its deltas are queued,
    // and the snapshot is built once, on the writer, and shared by every
    // read until the next batch.
    EXPECT_EQ(service.GraphVersion(), out.version);
    EXPECT_EQ(sub.PendingBatches(), static_cast<size_t>(i + 1));
    const std::shared_ptr<const Graph> published = service.Snapshot();
    const Graph::CsrParts got = published->ToCsrParts();
    const Graph::CsrParts want = shadow.Materialize()->ToCsrParts();
    EXPECT_EQ(got.labels, want.labels);
    EXPECT_EQ(got.offsets, want.offsets);
    EXPECT_EQ(got.adjacency, want.adjacency);
    JobHandle h = service.Submit(PathJob());
    EXPECT_EQ(h.Wait(), JobStatus::kDone);
    EXPECT_EQ(h.graph_version(), out.version);
    EXPECT_EQ(service.Snapshot().get(), published.get());
    EXPECT_GE(out.publish_ms, 0.0);
  }
  // One publish per applied batch, timed; the constructor's is not a batch.
  EXPECT_EQ(service.Metrics().publish.count(), 4u);
}

TEST_F(DynamicServiceTest, RejectedBatchLeavesThePublishedPairUnchanged) {
  MatchService service(SmallData(), {.num_workers = 1});
  const std::shared_ptr<const Graph> before = service.Snapshot();

  dyn::UpdateBatch invalid;
  invalid.InsertEdge(0, 99);  // no vertex 99: Normalize rejects
  EXPECT_FALSE(service.ApplyUpdates(invalid).ok);
  EXPECT_EQ(service.GraphVersion(), 0u);
  EXPECT_EQ(service.Snapshot().get(), before.get());

  FaultInjector::FireNth("delta_apply", 1);
  dyn::UpdateBatch batch;
  batch.InsertEdge(1, 3);
  EXPECT_FALSE(service.ApplyUpdates(batch).ok);
  EXPECT_EQ(service.GraphVersion(), 0u);
  EXPECT_EQ(service.Snapshot().get(), before.get());
  JobHandle h = service.Submit(PathJob());
  EXPECT_EQ(h.Wait(), JobStatus::kDone);
  EXPECT_EQ(h.graph_version(), 0u);
  EXPECT_EQ(h.Result().embeddings, 1u);

  const auto m = service.Metrics();
  EXPECT_EQ(m.dyn_batches_rejected, 2u);
  EXPECT_EQ(m.publish.count(), 0u);
}

TEST_F(DynamicServiceTest, QueryCacheCannotServeStaleGraph) {
  // One worker so cache outcomes are deterministic.
  ServiceOptions options;
  options.num_workers = 1;
  MatchService service(SmallData(), options);

  auto run = [&](CacheOutcome expect_outcome, size_t expect_count) {
    QueryJob job = PathJob();
    JobHandle h = service.Submit(std::move(job));
    EXPECT_EQ(h.Wait(), JobStatus::kDone);
    EXPECT_EQ(h.cache_outcome(), expect_outcome);
    EXPECT_EQ(h.Result().embeddings, expect_count);
  };
  run(CacheOutcome::kMiss, 1);
  run(CacheOutcome::kHit, 1);

  // Advance the graph: the old blob's candidate space does not contain the
  // new embedding, so serving it would be wrong. The version in the cache
  // key makes the next lookup a miss; correctness shows in the count.
  dyn::UpdateBatch batch;
  batch.InsertEdge(1, 3);
  ASSERT_TRUE(service.ApplyUpdates(batch).ok);
  // The publish dropped the replaced version's blob: it could never be
  // hit again, so it must not stay resident either.
  const auto after_publish = service.Metrics();
  EXPECT_EQ(after_publish.cache_entries, 0u);
  EXPECT_EQ(after_publish.cache_resident_bytes, 0u);
  run(CacheOutcome::kMiss, 2);
  run(CacheOutcome::kHit, 2);

  // Metrics agree: two misses, two hits, no stale serving path exists, and
  // only the current version's blob is resident.
  const auto m = service.Metrics();
  EXPECT_EQ(m.cache_misses, 2u);
  EXPECT_EQ(m.cache_hits, 2u);
  EXPECT_EQ(m.cache_entries, 1u);
}

TEST_F(DynamicServiceTest, OverflowDegradesToResync) {
  ServiceOptions options;
  options.num_workers = 1;
  options.subscription_queue_batches = 2;
  MatchService service(SmallData(), options);
  SubscriptionHandle sub = service.Subscribe(PathJob());
  ASSERT_TRUE(sub.ok());

  // Three updates without polling: the third overflows the 2-deep queue,
  // which drops the backlog and leaves one resync marker.
  for (int i = 0; i < 3; ++i) {
    dyn::UpdateBatch batch;
    if (i % 2 == 0) {
      batch.InsertEdge(1, 3);
    } else {
      batch.RemoveEdge(1, 3);
    }
    ASSERT_TRUE(service.ApplyUpdates(batch).ok);
  }
  auto batches = sub.Drain();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_TRUE(batches[0].resync);
  EXPECT_EQ(batches[0].version, 3u);
  EXPECT_TRUE(batches[0].deltas.empty());
  EXPECT_GE(service.Metrics().dyn_resyncs, 1u);

  // The subscription keeps working after a resync. After three alternating
  // batches the edge (1, 3) is present, so removing it destroys one
  // embedding.
  dyn::UpdateBatch batch;
  batch.RemoveEdge(1, 3);
  ASSERT_TRUE(service.ApplyUpdates(batch).ok);
  auto next = sub.Drain();
  ASSERT_EQ(next.size(), 1u);
  EXPECT_FALSE(next[0].resync);
  EXPECT_EQ(next[0].deltas.size(), 1u);
}

TEST_F(DynamicServiceTest, DeltaApplyFaultRejectsAtomically) {
  MatchService service(SmallData(), {.num_workers = 1});
  SubscriptionHandle sub = service.Subscribe(PathJob());
  ASSERT_TRUE(sub.ok());

  FaultInjector::FireNth("delta_apply", 1);
  dyn::UpdateBatch batch;
  batch.InsertEdge(1, 3);
  UpdateOutcome out = service.ApplyUpdates(batch);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(service.GraphVersion(), 0u);
  // No subscriber observed the failed version.
  EXPECT_EQ(sub.PendingBatches(), 0u);
  EXPECT_EQ(service.Metrics().dyn_batches_rejected, 1u);

  // Retry succeeds (FireNth fires once).
  UpdateOutcome retry = service.ApplyUpdates(batch);
  ASSERT_TRUE(retry.ok);
  EXPECT_EQ(retry.version, 1u);
  EXPECT_EQ(sub.PendingBatches(), 1u);
}

TEST_F(DynamicServiceTest, SubscriberNotifyFaultDegradesToResync) {
  MatchService service(SmallData(), {.num_workers = 1});
  SubscriptionHandle sub = service.Subscribe(PathJob());
  ASSERT_TRUE(sub.ok());

  FaultInjector::FireNth("subscriber_notify", 1);
  dyn::UpdateBatch batch;
  batch.InsertEdge(1, 3);
  UpdateOutcome out = service.ApplyUpdates(batch);
  ASSERT_TRUE(out.ok);  // the graph still advanced
  EXPECT_EQ(out.resyncs, 1u);
  auto batches = sub.Drain();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_TRUE(batches[0].resync);

  // Recovery: re-run the query, fold later batches normally.
  EmbeddingSet live = MatchNow(service, MakePath({1, 2, 3}));
  EXPECT_EQ(live.size(), 2u);
  dyn::UpdateBatch b2;
  b2.RemoveEdge(0, 1);
  ASSERT_TRUE(service.ApplyUpdates(b2).ok);
  FoldDeltas(sub, &live);
  EXPECT_EQ(live, MatchNow(service, MakePath({1, 2, 3})));
}

TEST_F(DynamicServiceTest, MetricsDynamicsBlock) {
  MatchService service(SmallData(), {.num_workers = 1});
  SubscriptionHandle sub = service.Subscribe(PathJob());
  ASSERT_TRUE(sub.ok());
  dyn::UpdateBatch batch;
  batch.InsertEdge(1, 3);
  ASSERT_TRUE(service.ApplyUpdates(batch).ok);

  const auto m = service.Metrics();
  EXPECT_EQ(m.graph_version, 1u);
  EXPECT_EQ(m.dyn_batches_applied, 1u);
  EXPECT_EQ(m.dyn_active_subscriptions, 1u);
  EXPECT_EQ(m.dyn_cs_incremental + m.dyn_cs_rebuilds, 1u);
  EXPECT_EQ(m.dyn_embeddings_created, 1u);
  EXPECT_EQ(m.notify.count(), 1u);
  EXPECT_EQ(m.publish.count(), 1u);

  const std::string json = obs::ServiceMetricsToJson(m);
  EXPECT_NE(json.find("\"dynamic\""), std::string::npos);
  EXPECT_NE(json.find("\"notify_latency\""), std::string::npos);
  EXPECT_NE(json.find("\"publish_ms\""), std::string::npos);
}

}  // namespace
}  // namespace daf::service
