#include "persist/store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "dyn/delta_graph.h"
#include "dyn/update_batch.h"
#include "graph/io.h"
#include "tests/persist/persist_test_util.h"
#include "tests/test_util.h"
#include "util/fault_inject.h"
#include "util/rng.h"

namespace daf::persist {
namespace {

using daf::testing::ReadFileBytes;
using daf::testing::ScopedTempDir;
using daf::testing::WriteFileBytes;

std::string SnapName(uint64_t version) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "snapshot-%020llu.dafs",
                static_cast<unsigned long long>(version));
  return buf;
}

std::string WalName(uint64_t version) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "wal-%020llu.dafw",
                static_cast<unsigned long long>(version));
  return buf;
}

bool Exists(const std::string& path) {
  return std::filesystem::exists(path);
}

Graph BaseGraph() { return daf::testing::MakePath({1, 2, 3, 1, 2, 3}); }

/// A deterministic little batch history exercising every op kind,
/// including a label change in batch 3 (re-insert of a present edge with
/// a new label — normalizes to remove-old + insert-new; the case raw
/// batch replay would get wrong, which is why the WAL stores net changes).
std::vector<dyn::UpdateBatch> SampleBatches() {
  std::vector<dyn::UpdateBatch> batches(4);
  batches[0].InsertEdge(0, 2).InsertEdge(1, 3, 7);
  batches[1].AddVertex(9).InsertEdge(5, 6);
  batches[2].RemoveVertex(4).RemoveEdge(0, 1);
  batches[3].InsertEdge(1, 3, 8);
  return batches;
}

/// Appends `batch` to the store, then applies it to `dg` — the
/// append-before-apply protocol MatchService follows.
void AppendAndApply(DurableStore& store, dyn::DeltaGraph& dg,
                    const dyn::UpdateBatch& batch) {
  dyn::NormalizedBatch net;
  std::string error;
  ASSERT_TRUE(dg.Normalize(batch, &net, &error)) << error;
  ASSERT_TRUE(store.AppendBatch(net, batch.add_vertices, dg.version() + 1,
                                &error))
      << error;
  const dyn::ApplyResult r = dg.ApplyBatch(batch);
  ASSERT_TRUE(r.ok) << r.error;
}

DurableStore::Options TestOptions() {
  DurableStore::Options o;
  o.fsync_policy = FsyncPolicy::kOff;  // tests don't need durability
  return o;
}

TEST(StoreTest, FreshOpenInitializeReopen) {
  ScopedTempDir dir;
  std::string error;
  const Graph base = BaseGraph();
  {
    auto store = DurableStore::Open(dir.path(), TestOptions(), &error);
    ASSERT_NE(store, nullptr) << error;
    EXPECT_FALSE(store->has_state());
    ASSERT_TRUE(store->InitializeFresh(base, /*version=*/0, &error)) << error;
  }
  EXPECT_TRUE(Exists(dir.File(SnapName(0))));
  EXPECT_TRUE(Exists(dir.File(WalName(0))));

  auto store = DurableStore::Open(dir.path(), TestOptions(), &error);
  ASSERT_NE(store, nullptr) << error;
  ASSERT_TRUE(store->has_state());
  EXPECT_TRUE(store->recovery().recovered);
  EXPECT_EQ(store->recovery().snapshot_version, 0u);
  EXPECT_EQ(store->recovery().wal_records_replayed, 0u);
  dyn::DeltaGraph dg = store->TakeRecoveredGraph();
  EXPECT_EQ(dg.version(), 0u);
  EXPECT_EQ(GraphToText(*dg.Materialize()), GraphToText(base));
}

TEST(StoreTest, WalReplayMatchesMirror) {
  ScopedTempDir dir;
  std::string error;
  dyn::DeltaGraph mirror(BaseGraph());
  {
    auto store = DurableStore::Open(dir.path(), TestOptions(), &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->InitializeFresh(*mirror.Materialize(), 0, &error))
        << error;
    for (const dyn::UpdateBatch& batch : SampleBatches()) {
      AppendAndApply(*store, mirror, batch);
    }
    EXPECT_EQ(store->Stats().wal_appended_batches, 4u);
  }
  auto store = DurableStore::Open(dir.path(), TestOptions(), &error);
  ASSERT_NE(store, nullptr) << error;
  ASSERT_TRUE(store->has_state());
  EXPECT_EQ(store->recovery().wal_records_replayed, 4u);
  dyn::DeltaGraph recovered = store->TakeRecoveredGraph();
  EXPECT_EQ(recovered.version(), mirror.version());
  EXPECT_EQ(recovered.NumVertices(), mirror.NumVertices());
  EXPECT_FALSE(recovered.Alive(4));
  // Full structural fidelity, edge labels included (GraphToText drops
  // them): the label-change batch left (1, 3) relabeled 8.
  const Graph::CsrParts got = recovered.Materialize()->ToCsrParts();
  const Graph::CsrParts want = mirror.Materialize()->ToCsrParts();
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(got.offsets, want.offsets);
  EXPECT_EQ(got.adjacency, want.adjacency);
  EXPECT_EQ(got.edge_labels, want.edge_labels);
  EXPECT_EQ(recovered.Materialize()->EdgeLabelBetween(1, 3), 8);
}

TEST(StoreTest, RollbackRemovesRecord) {
  ScopedTempDir dir;
  std::string error;
  dyn::DeltaGraph mirror(BaseGraph());
  {
    auto store = DurableStore::Open(dir.path(), TestOptions(), &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->InitializeFresh(*mirror.Materialize(), 0, &error))
        << error;
    // Log a batch whose apply "fails": roll it back instead of applying.
    dyn::UpdateBatch doomed;
    doomed.InsertEdge(0, 3);
    dyn::NormalizedBatch net;
    ASSERT_TRUE(mirror.Normalize(doomed, &net, &error)) << error;
    ASSERT_TRUE(store->AppendBatch(net, {}, 1, &error)) << error;
    ASSERT_TRUE(store->RollbackLastAppend(&error)) << error;
    EXPECT_FALSE(store->failed());
    // Version 1 is reusable for the batch that does commit.
    dyn::UpdateBatch committed;
    committed.InsertEdge(0, 4);
    AppendAndApply(*store, mirror, committed);
  }
  auto store = DurableStore::Open(dir.path(), TestOptions(), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->recovery().wal_records_replayed, 1u);
  dyn::DeltaGraph recovered = store->TakeRecoveredGraph();
  EXPECT_EQ(recovered.version(), 1u);
  EXPECT_EQ(GraphToText(*recovered.Materialize()),
            GraphToText(*mirror.Materialize()));
}

TEST(StoreTest, CheckpointRotatesAndAppliesRetention) {
  ScopedTempDir dir;
  std::string error;
  DurableStore::Options options = TestOptions();
  options.snapshots_to_keep = 1;
  dyn::DeltaGraph mirror(BaseGraph());
  {
    auto store = DurableStore::Open(dir.path(), options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->InitializeFresh(*mirror.Materialize(), 0, &error))
        << error;
    for (const dyn::UpdateBatch& batch : SampleBatches()) {
      AppendAndApply(*store, mirror, batch);
    }
    ASSERT_TRUE(store->Checkpoint(*mirror.Materialize(), mirror.version(),
                                  &error))
        << error;
    EXPECT_EQ(store->Stats().snapshots_written, 2u);  // initial + checkpoint
    EXPECT_GT(store->Stats().last_snapshot_ms, 0.0);
  }
  // Retention (keep 1) dropped the seed snapshot and its WAL segment.
  EXPECT_FALSE(Exists(dir.File(SnapName(0))));
  EXPECT_FALSE(Exists(dir.File(WalName(0))));
  EXPECT_TRUE(Exists(dir.File(SnapName(4))));
  EXPECT_TRUE(Exists(dir.File(WalName(4))));

  auto store = DurableStore::Open(dir.path(), options, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->recovery().snapshot_version, 4u);
  EXPECT_EQ(store->recovery().wal_records_replayed, 0u);
  dyn::DeltaGraph recovered = store->TakeRecoveredGraph();
  EXPECT_EQ(recovered.version(), 4u);
  EXPECT_EQ(GraphToText(*recovered.Materialize()),
            GraphToText(*mirror.Materialize()));
}

/// Appends 50 fresh edges from `hub` to 50 new vertices (832 WAL bytes)
/// until CheckpointDue() turns true; returns the tail just before that.
uint64_t AppendUntilDue(DurableStore& store, dyn::DeltaGraph& mirror,
                        VertexId hub) {
  uint64_t before = 0;
  while (!store.CheckpointDue()) {
    before = store.Stats().wal_tail_bytes;
    dyn::UpdateBatch batch;
    for (uint32_t i = 0; i < 50; ++i) {
      batch.AddVertex(1).InsertEdge(hub, mirror.NumVertices() + i);
    }
    AppendAndApply(store, mirror, batch);
    EXPECT_EQ(store.Stats().wal_tail_bytes, before + 832);
    if (::testing::Test::HasFailure() || mirror.version() > 10000) break;
  }
  return before;
}

TEST(StoreTest, CheckpointDueOnWalTailFloorAndQuarter) {
  ScopedTempDir dir;
  std::string error;
  const uint64_t floor = DurableStore::kCheckpointFloorBytes;
  const uint64_t divisor = DurableStore::kCheckpointSnapshotDivisor;
  {
    // Small snapshot: the floor decides.
    dyn::DeltaGraph mirror(BaseGraph());
    auto store = DurableStore::Open(dir.File("small"), TestOptions(), &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->InitializeFresh(*mirror.Materialize(), 0, &error))
        << error;
    EXPECT_EQ(store->Stats().snapshot_bytes,
              std::filesystem::file_size(dir.File("small/" + SnapName(0))));
    ASSERT_LT(store->Stats().snapshot_bytes / divisor, floor);
    EXPECT_FALSE(store->CheckpointDue());

    // A rolled-back append leaves the tail as it was.
    dyn::UpdateBatch doomed;
    doomed.InsertEdge(0, 3);
    dyn::NormalizedBatch net;
    ASSERT_TRUE(mirror.Normalize(doomed, &net, &error)) << error;
    ASSERT_TRUE(store->AppendBatch(net, {}, 1, &error)) << error;
    EXPECT_GT(store->Stats().wal_tail_bytes, 0u);
    ASSERT_TRUE(store->RollbackLastAppend(&error)) << error;
    EXPECT_EQ(store->Stats().wal_tail_bytes, 0u);

    const uint64_t before = AppendUntilDue(*store, mirror, 0);
    EXPECT_LT(before, floor);
    EXPECT_GE(store->Stats().wal_tail_bytes, floor);

    // A checkpoint absorbs the tail and resizes the threshold.
    ASSERT_TRUE(store->Checkpoint(*mirror.Materialize(), mirror.version(),
                                  &error))
        << error;
    EXPECT_EQ(store->Stats().wal_tail_bytes, 0u);
    EXPECT_FALSE(store->CheckpointDue());
    EXPECT_EQ(store->Stats().snapshot_bytes,
              std::filesystem::file_size(
                  dir.File("small/" + SnapName(mirror.version()))));
  }
  {
    // A snapshot over four times the floor: a quarter of it decides.
    Rng rng(7);
    dyn::DeltaGraph mirror(daf::testing::RandomDataGraph(8000, 40000, 4, rng));
    uint64_t appended = 0;
    uint64_t quarter = 0;
    {
      auto store = DurableStore::Open(dir.File("large"), TestOptions(), &error);
      ASSERT_NE(store, nullptr) << error;
      ASSERT_TRUE(store->InitializeFresh(*mirror.Materialize(), 0, &error))
          << error;
      quarter = store->Stats().snapshot_bytes / divisor;
      ASSERT_GT(quarter, floor);
      const uint64_t before = AppendUntilDue(*store, mirror, 0);
      appended = store->Stats().wal_tail_bytes;
      EXPECT_LT(before, quarter);
      EXPECT_GE(appended, quarter);
    }
    // Reopening counts the replayed tail byte for byte.
    auto store = DurableStore::Open(dir.File("large"), TestOptions(), &error);
    ASSERT_NE(store, nullptr) << error;
    EXPECT_EQ(store->recovery().wal_records_replayed, mirror.version());
    EXPECT_EQ(store->Stats().wal_tail_bytes, appended);
    EXPECT_EQ(store->Stats().snapshot_bytes / divisor, quarter);
    EXPECT_TRUE(store->CheckpointDue());
  }
}

TEST(StoreTest, CorruptNewestSnapshotFallsBackToOlder) {
  ScopedTempDir dir;
  std::string error;
  dyn::DeltaGraph mirror(BaseGraph());
  {
    auto store = DurableStore::Open(dir.path(), TestOptions(), &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->InitializeFresh(*mirror.Materialize(), 0, &error))
        << error;
    dyn::UpdateBatch b1;
    b1.InsertEdge(0, 2);
    AppendAndApply(*store, mirror, b1);
    ASSERT_TRUE(store->Checkpoint(*mirror.Materialize(), 1, &error)) << error;
    dyn::UpdateBatch b2;
    b2.InsertEdge(0, 3);
    AppendAndApply(*store, mirror, b2);
  }
  // Damage the newest snapshot; recovery must fall back to snapshot-0 and
  // replay BOTH WAL segments to reach the same state.
  const std::string newest = dir.File(SnapName(1));
  std::vector<uint8_t> bytes = ReadFileBytes(newest);
  bytes[bytes.size() / 2] ^= 0xFF;
  ASSERT_TRUE(WriteFileBytes(newest, bytes));

  auto store = DurableStore::Open(dir.path(), TestOptions(), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->recovery().snapshot_version, 0u);
  EXPECT_EQ(store->recovery().snapshots_skipped, 1u);
  EXPECT_EQ(store->recovery().wal_records_replayed, 2u);
  dyn::DeltaGraph recovered = store->TakeRecoveredGraph();
  EXPECT_EQ(recovered.version(), 2u);
  EXPECT_EQ(GraphToText(*recovered.Materialize()),
            GraphToText(*mirror.Materialize()));
}

TEST(StoreTest, WalWithoutSnapshotIsError) {
  ScopedTempDir dir;
  std::string error;
  auto wal = WalWriter::Create(dir.File(WalName(0)), 0, FsyncPolicy::kOff, 0,
                               &error);
  ASSERT_NE(wal, nullptr) << error;
  wal.reset();
  EXPECT_EQ(DurableStore::Open(dir.path(), TestOptions(), &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(StoreTest, AllSnapshotsCorruptIsError) {
  ScopedTempDir dir;
  std::string error;
  {
    auto store = DurableStore::Open(dir.path(), TestOptions(), &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->InitializeFresh(BaseGraph(), 0, &error)) << error;
  }
  const std::string snap = dir.File(SnapName(0));
  std::vector<uint8_t> bytes = ReadFileBytes(snap);
  bytes[8] ^= 0xFF;
  ASSERT_TRUE(WriteFileBytes(snap, bytes));
  // Refusing (rather than silently starting empty) is the point: state
  // existed, so an empty start would be data loss.
  EXPECT_EQ(DurableStore::Open(dir.path(), TestOptions(), &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(StoreTest, TornTailTruncatedAndAppendsContinue) {
  ScopedTempDir dir;
  std::string error;
  dyn::DeltaGraph mirror(BaseGraph());
  {
    auto store = DurableStore::Open(dir.path(), TestOptions(), &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->InitializeFresh(*mirror.Materialize(), 0, &error))
        << error;
    dyn::UpdateBatch b1;
    b1.InsertEdge(0, 2);
    AppendAndApply(*store, mirror, b1);
    dyn::UpdateBatch b2;
    b2.InsertEdge(0, 3);
    AppendAndApply(*store, mirror, b2);
  }
  // Tear the active segment mid-record (a crash during append).
  const std::string wal_path = dir.File(WalName(0));
  std::vector<uint8_t> bytes = ReadFileBytes(wal_path);
  bytes.resize(bytes.size() - 3);
  ASSERT_TRUE(WriteFileBytes(wal_path, bytes));

  auto store = DurableStore::Open(dir.path(), TestOptions(), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->recovery().wal_records_replayed, 1u);
  EXPECT_GT(store->recovery().wal_truncated_bytes, 0u);
  dyn::DeltaGraph recovered = store->TakeRecoveredGraph();
  EXPECT_EQ(recovered.version(), 1u);

  // The log accepts new batches after the repair, and they survive
  // another restart.
  dyn::UpdateBatch b2;
  b2.InsertEdge(0, 3);
  dyn::NormalizedBatch net;
  ASSERT_TRUE(recovered.Normalize(b2, &net, &error)) << error;
  ASSERT_TRUE(store->AppendBatch(net, {}, 2, &error)) << error;
  ASSERT_TRUE(recovered.ApplyBatch(b2).ok);
  store.reset();

  store = DurableStore::Open(dir.path(), TestOptions(), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->TakeRecoveredGraph().version(), 2u);
}

TEST(StoreTest, CheckpointFaultIsNonFatal) {
  ScopedTempDir dir;
  std::string error;
  dyn::DeltaGraph mirror(BaseGraph());
  auto store = DurableStore::Open(dir.path(), TestOptions(), &error);
  ASSERT_NE(store, nullptr) << error;
  ASSERT_TRUE(store->InitializeFresh(*mirror.Materialize(), 0, &error))
      << error;
  dyn::UpdateBatch b1;
  b1.InsertEdge(0, 2);
  AppendAndApply(*store, mirror, b1);

  for (const char* point : {"snapshot_write", "snapshot_rename"}) {
    FaultInjector::FireNth(point, 1);
    std::string checkpoint_error;
    EXPECT_FALSE(
        store->Checkpoint(*mirror.Materialize(), 1, &checkpoint_error))
        << point;
    EXPECT_FALSE(checkpoint_error.empty()) << point;
    FaultInjector::Disarm();
  }
  EXPECT_GE(store->Stats().persist_errors, 2u);
  EXPECT_FALSE(store->failed());
  // No half-written snapshot was left behind, and the store still works.
  EXPECT_FALSE(Exists(dir.File(SnapName(1))));
  dyn::UpdateBatch b2;
  b2.InsertEdge(0, 3);
  AppendAndApply(*store, mirror, b2);
  store.reset();

  store = DurableStore::Open(dir.path(), TestOptions(), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->recovery().snapshot_version, 0u);
  EXPECT_EQ(store->recovery().wal_records_replayed, 2u);
  EXPECT_EQ(store->TakeRecoveredGraph().version(), 2u);
}

TEST(StoreTest, DuplicateVersionIsOutOfSequenceAtRecovery) {
  ScopedTempDir dir;
  std::string error;
  dyn::DeltaGraph mirror(BaseGraph());
  {
    auto store = DurableStore::Open(dir.path(), TestOptions(), &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->InitializeFresh(*mirror.Materialize(), 0, &error))
        << error;
    dyn::UpdateBatch b;
    b.InsertEdge(0, 2);
    dyn::NormalizedBatch net;
    ASSERT_TRUE(mirror.Normalize(b, &net, &error)) << error;
    // A buggy caller double-logs version 1.
    ASSERT_TRUE(store->AppendBatch(net, {}, 1, &error)) << error;
    ASSERT_TRUE(store->AppendBatch(net, {}, 1, &error)) << error;
  }
  EXPECT_EQ(DurableStore::Open(dir.path(), TestOptions(), &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(StoreTest, TmpFilesAreCleanedAtOpen) {
  ScopedTempDir dir;
  std::string error;
  {
    auto store = DurableStore::Open(dir.path(), TestOptions(), &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->InitializeFresh(BaseGraph(), 0, &error)) << error;
  }
  // A crash between tmp-write and rename leaves a .tmp; Open sweeps it.
  const std::string tmp = dir.File(SnapName(7) + ".tmp");
  ASSERT_TRUE(WriteFileBytes(tmp, {1, 2, 3}));
  auto store = DurableStore::Open(dir.path(), TestOptions(), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_FALSE(Exists(tmp));
  EXPECT_EQ(store->recovery().snapshot_version, 0u);
}

}  // namespace
}  // namespace daf::persist
