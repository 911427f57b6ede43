// Restart semantics of a durable MatchService (docs/PERSISTENCE.md): state
// and graph version survive a save/restore cycle, query-cache keys stay
// correct because the recovered version resumes (never restarts at 0),
// rejected batches are never logged, WAL faults reject the batch rather
// than desynchronize log and graph, and graceful shutdown drains jobs and
// hands every subscriber a final resync marker.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "dyn/update_batch.h"
#include "persist/store.h"
#include "service/match_service.h"
#include "tests/persist/persist_test_util.h"
#include "tests/test_util.h"
#include "util/fault_inject.h"
#include "util/rng.h"

namespace daf::service {
namespace {

using daf::testing::EmbeddingSet;
using daf::testing::MakePath;
using daf::testing::ScopedTempDir;

class RestartTest : public ::testing::Test {
 protected:
  ~RestartTest() override { FaultInjector::Disarm(); }
};

// Labeled path 0-1-2 (labels 1-2-3) plus a detached label-1 vertex 3.
Graph SmallData() {
  return Graph::FromEdges({1, 2, 3, 1}, {{0, 1}, {1, 2}});
}

std::shared_ptr<persist::DurableStore> OpenStore(const std::string& dir) {
  persist::DurableStore::Options options;
  options.fsync_policy = persist::FsyncPolicy::kOff;
  std::string error;
  auto store = persist::DurableStore::Open(dir, options, &error);
  EXPECT_NE(store, nullptr) << error;
  return store;
}

ServiceOptions DurableOptions(std::shared_ptr<persist::DurableStore> store) {
  ServiceOptions options;
  options.num_workers = 1;
  options.data_store = std::move(store);
  return options;
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

TEST_F(RestartTest, StateAndVersionSurviveRestart) {
  ScopedTempDir dir;
  EmbeddingSet expect;
  {
    MatchService service(SmallData(), DurableOptions(OpenStore(dir.path())));
    dyn::UpdateBatch b1;
    b1.InsertEdge(1, 3);
    ASSERT_TRUE(service.ApplyUpdates(b1).ok);
    dyn::UpdateBatch b2;
    b2.AddVertex(3).InsertEdge(3, 4);
    ASSERT_TRUE(service.ApplyUpdates(b2).ok);
    expect = MatchNow(service, MakePath({1, 2, 3}));
    EXPECT_EQ(expect.size(), 2u);
    service.GracefulShutdown(/*grace_ms=*/2000);
  }
  {
    auto store = OpenStore(dir.path());
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->has_state());
    // The seed graph passed to the constructor is deliberately different:
    // recovery must win, proving restarts don't depend on reloading the
    // original text file.
    MatchService service(MakePath({7, 7}), DurableOptions(store));
    EXPECT_EQ(service.GraphVersion(), 2u);
    EXPECT_EQ(service.Snapshot()->NumVertices(), 5u);
    EXPECT_EQ(MatchNow(service, MakePath({1, 2, 3})), expect);

    const auto m = service.Metrics();
    EXPECT_TRUE(m.persist_enabled);
    EXPECT_TRUE(m.persist_recovered);
    EXPECT_EQ(m.persist_recovery_wal_replayed, 2u);
    EXPECT_EQ(m.graph_version, 2u);
  }
}

TEST_F(RestartTest, CacheKeysResumeAtRecoveredVersion) {
  ScopedTempDir dir;
  {
    MatchService service(SmallData(), DurableOptions(OpenStore(dir.path())));
    dyn::UpdateBatch b;
    b.InsertEdge(1, 3);
    ASSERT_TRUE(service.ApplyUpdates(b).ok);
    service.GracefulShutdown(2000);
  }
  MatchService service(SmallData(), DurableOptions(OpenStore(dir.path())));
  ASSERT_EQ(service.GraphVersion(), 1u);

  auto run = [&](CacheOutcome expect_outcome, size_t expect_count) {
    QueryJob job;
    job.query = MakePath({1, 2, 3});
    JobHandle h = service.Submit(std::move(job));
    EXPECT_EQ(h.Wait(), JobStatus::kDone);
    EXPECT_EQ(h.cache_outcome(), expect_outcome);
    EXPECT_EQ(h.Result().embeddings, expect_count);
  };
  // Fresh cache after restart: miss, then hit, keyed at version 1 — the
  // recovered graph (2 embeddings), not the pre-update one.
  run(CacheOutcome::kMiss, 2);
  run(CacheOutcome::kHit, 2);
  // And advancing the version still invalidates.
  dyn::UpdateBatch b;
  b.RemoveEdge(1, 3);
  ASSERT_TRUE(service.ApplyUpdates(b).ok);
  run(CacheOutcome::kMiss, 1);
}

TEST_F(RestartTest, RejectedBatchIsNeverLogged) {
  ScopedTempDir dir;
  {
    MatchService service(SmallData(), DurableOptions(OpenStore(dir.path())));
    // Invalid batch: endpoint out of range. Rejected before any append.
    dyn::UpdateBatch bad;
    bad.InsertEdge(0, 99);
    EXPECT_FALSE(service.ApplyUpdates(bad).ok);
    EXPECT_EQ(service.GraphVersion(), 0u);
    EXPECT_EQ(service.Metrics().persist_wal_appended_batches, 0u);

    // Injected apply failure after a successful append: the record must be
    // rolled back, or restart would replay a batch the service reported
    // failed.
    FaultInjector::FireNth("delta_apply", 1);
    dyn::UpdateBatch b;
    b.InsertEdge(1, 3);
    EXPECT_FALSE(service.ApplyUpdates(b).ok);
    FaultInjector::Disarm();
    EXPECT_EQ(service.GraphVersion(), 0u);
    service.GracefulShutdown(2000);
  }
  auto store = OpenStore(dir.path());
  ASSERT_TRUE(store->has_state());
  EXPECT_EQ(store->recovery().wal_records_replayed, 0u);
  EXPECT_EQ(store->TakeRecoveredGraph().version(), 0u);
}

TEST_F(RestartTest, WalAppendFaultRejectsBatch) {
  ScopedTempDir dir;
  MatchService service(SmallData(), DurableOptions(OpenStore(dir.path())));
  FaultInjector::FireNth("wal_append", 1);
  dyn::UpdateBatch b;
  b.InsertEdge(1, 3);
  UpdateOutcome out = service.ApplyUpdates(b);
  EXPECT_FALSE(out.ok);
  FaultInjector::Disarm();
  // Append-before-apply: if the log write failed, the graph must not move.
  EXPECT_EQ(service.GraphVersion(), 0u);
  EXPECT_GE(service.Metrics().dyn_batches_rejected, 1u);

  UpdateOutcome retry = service.ApplyUpdates(b);
  ASSERT_TRUE(retry.ok) << retry.error;
  EXPECT_EQ(retry.version, 1u);
  EXPECT_EQ(service.Metrics().persist_wal_appended_batches, 1u);
}

TEST_F(RestartTest, GracefulShutdownDrainsAndSendsResync) {
  ScopedTempDir dir;
  MatchService service(SmallData(), DurableOptions(OpenStore(dir.path())));
  QueryJob standing;
  standing.query = MakePath({1, 2, 3});
  SubscriptionHandle sub = service.Subscribe(std::move(standing));
  ASSERT_TRUE(sub.ok()) << sub.error();

  dyn::UpdateBatch b;
  b.InsertEdge(1, 3);
  ASSERT_TRUE(service.ApplyUpdates(b).ok);

  service.GracefulShutdown(2000);

  // The delta stream ends with a final resync marker at the shutdown
  // version, so consumers know exactly where delivery stopped.
  auto batches = sub.Drain();
  ASSERT_GE(batches.size(), 2u);
  EXPECT_FALSE(batches.front().resync);
  EXPECT_TRUE(batches.back().resync);
  EXPECT_EQ(batches.back().version, 1u);

  // Post-shutdown traffic is rejected.
  QueryJob job;
  job.query = MakePath({1, 2, 3});
  JobHandle h = service.Submit(std::move(job));
  EXPECT_EQ(h.Status(), JobStatus::kRejected);
  EXPECT_FALSE(service.ApplyUpdates(b).ok);
}

TEST_F(RestartTest, ExplicitCheckpointSpeedsRecovery) {
  ScopedTempDir dir;
  {
    MatchService service(SmallData(), DurableOptions(OpenStore(dir.path())));
    dyn::UpdateBatch b;
    b.InsertEdge(1, 3);
    ASSERT_TRUE(service.ApplyUpdates(b).ok);
    std::string error;
    ASSERT_TRUE(service.Checkpoint(&error)) << error;
    const auto m = service.Metrics();
    EXPECT_GE(m.persist_snapshots_written, 2u);  // seed + explicit
    service.GracefulShutdown(2000);
  }
  auto store = OpenStore(dir.path());
  ASSERT_TRUE(store->has_state());
  // The checkpoint absorbed the WAL: nothing to replay.
  EXPECT_EQ(store->recovery().snapshot_version, 1u);
  EXPECT_EQ(store->recovery().wal_records_replayed, 0u);
  EXPECT_EQ(store->TakeRecoveredGraph().version(), 1u);
}

// A batch of `inserts` fresh edges from vertex `hub` to new vertices:
// every record grows the WAL by the same amount, and nothing repeats.
dyn::UpdateBatch FanOut(uint32_t num_vertices, VertexId hub, int inserts) {
  dyn::UpdateBatch batch;
  for (int i = 0; i < inserts; ++i) {
    batch.AddVertex(1).InsertEdge(hub, num_vertices + i);
  }
  return batch;
}

TEST_F(RestartTest, ServiceCheckpointsWhenTheWalTailIsDue) {
  ScopedTempDir dir;
  auto store = OpenStore(dir.path());
  const uint64_t threshold = persist::DurableStore::kCheckpointFloorBytes;
  uint64_t since_checkpoint = 0;
  {
    MatchService service(SmallData(), DurableOptions(store));
    // A tiny graph: its snapshot is far below four times the floor, so the
    // floor is the threshold.
    ASSERT_LT(store->Stats().snapshot_bytes,
              persist::DurableStore::kCheckpointSnapshotDivisor * threshold);
    ASSERT_EQ(service.Metrics().persist_snapshots_written, 1u);  // seed
    for (int round = 0; service.Metrics().persist_snapshots_written == 1;
         ++round) {
      ASSERT_LT(round, 1000);
      ASSERT_LT(store->Stats().wal_tail_bytes, threshold);
      ASSERT_TRUE(service.ApplyUpdates(FanOut(service.Snapshot()->NumVertices(),
                                              0, 50))
                      .ok);
    }
    // The batch that reached the threshold checkpointed its own version.
    EXPECT_EQ(store->Stats().wal_tail_bytes, 0u);
    const uint64_t checkpointed = service.GraphVersion();
    // A few more batches stay below the threshold: no further checkpoint.
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(service.ApplyUpdates(FanOut(service.Snapshot()->NumVertices(),
                                              1, 50))
                      .ok);
      ++since_checkpoint;
    }
    EXPECT_EQ(service.Metrics().persist_snapshots_written, 2u);
    EXPECT_EQ(service.GraphVersion(), checkpointed + since_checkpoint);
    service.GracefulShutdown(2000);
  }
  store.reset();
  auto reopened = OpenStore(dir.path());
  ASSERT_TRUE(reopened->has_state());
  // Recovery replays only what followed the checkpoint, and that tail is
  // below the threshold.
  EXPECT_EQ(reopened->recovery().wal_records_replayed, since_checkpoint);
  EXPECT_LT(reopened->Stats().wal_tail_bytes, threshold);
  EXPECT_GT(reopened->Stats().wal_tail_bytes, 0u);
  EXPECT_FALSE(reopened->CheckpointDue());
}

TEST_F(RestartTest, ReopenedStorePastTheThresholdCheckpointsOnFirstBatch) {
  ScopedTempDir dir;
  {
    // Write a tail past the floor straight through the store: no service,
    // so nothing checkpoints it.
    auto store = OpenStore(dir.path());
    dyn::DeltaGraph mirror(SmallData());
    std::string error;
    ASSERT_TRUE(store->InitializeFresh(*mirror.Materialize(), 0, &error))
        << error;
    while (!store->CheckpointDue()) {
      ASSERT_LT(mirror.version(), 1000u);
      const dyn::UpdateBatch batch = FanOut(mirror.NumVertices(), 2, 50);
      dyn::NormalizedBatch net;
      ASSERT_TRUE(mirror.Normalize(batch, &net, &error)) << error;
      ASSERT_TRUE(store->AppendBatch(net, batch.add_vertices,
                                     mirror.version() + 1, &error))
          << error;
      ASSERT_TRUE(mirror.ApplyNormalized(net, batch.add_vertices).ok);
    }
  }
  auto store = OpenStore(dir.path());
  ASSERT_TRUE(store->has_state());
  EXPECT_GE(store->Stats().wal_tail_bytes,
            persist::DurableStore::kCheckpointFloorBytes);
  EXPECT_TRUE(store->CheckpointDue());
  const uint64_t replayed = store->recovery().wal_records_replayed;

  // Constructing the service does not checkpoint; its first batch does.
  MatchService service(Graph(), DurableOptions(store));
  EXPECT_EQ(service.Metrics().persist_snapshots_written, 0u);
  ASSERT_TRUE(
      service.ApplyUpdates(FanOut(service.Snapshot()->NumVertices(), 0, 1))
          .ok);
  EXPECT_EQ(service.Metrics().persist_snapshots_written, 1u);
  EXPECT_EQ(service.GraphVersion(), replayed + 1);
  EXPECT_FALSE(store->CheckpointDue());
  EXPECT_EQ(store->Stats().wal_tail_bytes, 0u);
}

TEST_F(RestartTest, RecoveryBuildsOneSnapshotTheServiceReuses) {
  ScopedTempDir dir;
  // A base of a few thousand edges and a 20-batch tail that replay holds
  // in the overlay until the one build at the end.
  Rng rng(20261017);
  dyn::DeltaGraph mirror(daf::testing::RandomDataGraph(1500, 6000, 4, rng));
  ASSERT_GE(mirror.NumEdges(), 4096u);
  uint64_t logged = 0;
  {
    auto store = OpenStore(dir.path());
    std::string error;
    ASSERT_TRUE(store->InitializeFresh(*mirror.Materialize(), 0, &error))
        << error;
    for (int round = 0; round < 20; ++round) {
      dyn::UpdateBatch batch;
      const uint32_t n = mirror.NumVertices();
      for (int i = 0; i < 300; ++i) {
        const auto u = static_cast<VertexId>(rng.UniformInt(n));
        const auto v = static_cast<VertexId>(rng.UniformInt(n));
        if (!mirror.Alive(u) || !mirror.Alive(v)) continue;
        if (i % 3 == 0) {
          batch.RemoveEdge(u, v);  // mostly absent: ignored by Normalize
        } else {
          batch.InsertEdge(u, v, static_cast<Label>(i % 2));  // relabels too
        }
      }
      if (round % 5 == 1) batch.AddVertex(static_cast<Label>(round));
      if (round % 5 == 2) {
        const auto v = static_cast<VertexId>(rng.UniformInt(n));
        if (mirror.Alive(v)) batch.RemoveVertex(v);
      }
      dyn::NormalizedBatch net;
      ASSERT_TRUE(mirror.Normalize(batch, &net, &error)) << error;
      ASSERT_TRUE(store->AppendBatch(net, batch.add_vertices,
                                     mirror.version() + 1, &error))
          << error;
      const dyn::ApplyResult r =
          mirror.ApplyNormalized(net, batch.add_vertices);
      ASSERT_TRUE(r.ok) << r.error;
      ++logged;
    }
    ASSERT_GT(mirror.OverlayEdges(), 0u);
  }

  auto store = OpenStore(dir.path());
  ASSERT_TRUE(store->has_state());
  const persist::RecoveryInfo& info = store->recovery();
  EXPECT_EQ(info.wal_records_replayed, logged);
  EXPECT_NEAR(info.load_ms + info.replay_ms + info.build_ms, info.recovery_ms,
              1.0);
  const dyn::DeltaGraph& recovered = store->recovered_graph();
  EXPECT_EQ(recovered.version(), mirror.version());
  EXPECT_EQ(recovered.OverlayEdges(), 0u);
  const std::shared_ptr<const Graph> snapshot = recovered.Materialize();
  const Graph::CsrParts got = snapshot->ToCsrParts();
  const Graph::CsrParts want = mirror.Materialize()->ToCsrParts();
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(got.offsets, want.offsets);
  EXPECT_EQ(got.adjacency, want.adjacency);
  EXPECT_EQ(got.edge_labels, want.edge_labels);

  // The constructor publishes the snapshot recovery built, at the
  // recovered version, without building it again; the first job matches
  // exactly that pair.
  MatchService service(Graph(), DurableOptions(store));
  EXPECT_EQ(service.Snapshot().get(), snapshot.get());
  EXPECT_EQ(service.GraphVersion(), mirror.version());
  QueryJob job;
  job.query = MakePath({0, 1});
  JobHandle first = service.Submit(std::move(job));
  EXPECT_EQ(first.Wait(), JobStatus::kDone);
  EXPECT_EQ(first.graph_version(), mirror.version());
  EXPECT_EQ(service.Snapshot().get(), snapshot.get());
  const auto m = service.Metrics();
  EXPECT_EQ(m.publish.count(), 0u);
  EXPECT_EQ(m.persist_recovery_wal_replayed, logged);
  EXPECT_EQ(m.persist_recovery_ms, info.recovery_ms);
  EXPECT_EQ(m.persist_recovery_load_ms, info.load_ms);
  EXPECT_EQ(m.persist_recovery_replay_ms, info.replay_ms);
  EXPECT_EQ(m.persist_recovery_build_ms, info.build_ms);
}

TEST_F(RestartTest, MemoryOnlyServiceReportsPersistDisabled) {
  MatchService service(SmallData(), {.num_workers = 1});
  const auto m = service.Metrics();
  EXPECT_FALSE(m.persist_enabled);
  std::string error;
  EXPECT_FALSE(service.Checkpoint(&error));
  EXPECT_FALSE(error.empty());
  const std::string json = obs::ServiceMetricsToJson(m);
  EXPECT_NE(json.find("\"persist\""), std::string::npos);
}

}  // namespace
}  // namespace daf::service
