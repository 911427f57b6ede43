// Crash-recovery oracle (docs/PERSISTENCE.md): fork a child that runs a
// durable MatchService over a seeded batch stream with a SIGKILL armed on
// a persistence fault point (FaultInjector::KillNth), let it die
// mid-write, then recover the directory in the parent and check the
// recovered graph differentially against a never-crashed replica that
// applied the same deterministic batch prefix.
//
// The invariant: after a kill at ANY point, recovery yields exactly the
// state after some prefix of the committed batches — never a torn or
// merged state, and never a batch the service hadn't logged.
#include <gtest/gtest.h>

#ifdef __unix__

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <string>
#include <vector>

#include "dyn/delta_graph.h"
#include "dyn/update_batch.h"
#include "persist/store.h"
#include "service/match_service.h"
#include "tests/persist/persist_test_util.h"
#include "tests/test_util.h"
#include "util/fault_inject.h"
#include "util/rng.h"

namespace daf {
namespace {

using daf::testing::ScopedTempDir;

constexpr int kBatchesPerRun = 12;

Graph BaseGraph() {
  Rng rng(4242);
  return daf::testing::RandomDataGraph(30, 60, 3, rng);
}

/// Picks a live vertex deterministically (bounded probing).
VertexId PickAlive(const dyn::DeltaGraph& g, Rng& rng) {
  for (int tries = 0; tries < 64; ++tries) {
    const VertexId v = rng.UniformInt(g.NumVertices());
    if (g.Alive(v)) return v;
  }
  return 0;
}

/// The deterministic batch stream for `seed`: every batch is valid against
/// the state produced by its predecessors (simulated on `sim`), so child,
/// replica, and WAL replay all see the same history.
std::vector<dyn::UpdateBatch> GenBatches(const Graph& base, uint64_t seed) {
  dyn::DeltaGraph sim(base);
  Rng rng(seed);
  std::vector<dyn::UpdateBatch> out;
  for (int i = 0; i < kBatchesPerRun; ++i) {
    dyn::UpdateBatch batch;
    switch (rng.UniformInt(4)) {
      case 0: {  // grow: new vertex wired to an existing one
        batch.AddVertex(static_cast<Label>(rng.UniformInt(3)));
        batch.InsertEdge(sim.NumVertices(), PickAlive(sim, rng));
        break;
      }
      case 1: {  // densify
        const VertexId u = PickAlive(sim, rng);
        const VertexId v = PickAlive(sim, rng);
        if (u != v) batch.InsertEdge(u, v, static_cast<Label>(rng.UniformInt(2)));
        batch.AddVertex(static_cast<Label>(rng.UniformInt(3)));
        break;
      }
      case 2: {  // sparsify: drop an existing edge
        const auto edges = sim.CurrentEdges();
        if (!edges.empty()) {
          const auto& e = edges[rng.UniformInt(
              static_cast<uint32_t>(edges.size()))];
          batch.RemoveEdge(e.first.first, e.first.second);
        }
        batch.AddVertex(static_cast<Label>(rng.UniformInt(3)));
        break;
      }
      case 3: {  // tombstone a vertex
        batch.RemoveVertex(PickAlive(sim, rng));
        break;
      }
    }
    const dyn::ApplyResult r = sim.ApplyBatch(batch);
    if (!r.ok) ADD_FAILURE() << "generated invalid batch: " << r.error;
    out.push_back(std::move(batch));
  }
  return out;
}

persist::DurableStore::Options StoreOptions() {
  persist::DurableStore::Options o;
  o.fsync_policy = persist::FsyncPolicy::kEveryBatch;
  return o;
}

/// Child body: run the durable service with a kill armed; never returns.
[[noreturn]] void RunChild(const std::string& dir, const std::string& point,
                           uint64_t nth, uint64_t seed) {
  std::string error;
  auto store = persist::DurableStore::Open(dir, StoreOptions(), &error);
  if (store == nullptr) _exit(2);

  service::ServiceOptions options;
  options.num_workers = 1;
  options.data_store = std::move(store);
  service::MatchService service(BaseGraph(), options);
  if (!service.Metrics().persist_enabled) _exit(3);

  // Armed AFTER construction: the n-th poll counts from here, so the seed
  // snapshot's own writes aren't the ones killed.
  FaultInjector::KillNth(point, nth);
  for (const dyn::UpdateBatch& batch : GenBatches(BaseGraph(), seed)) {
    const service::UpdateOutcome out = service.ApplyUpdates(batch);
    if (!out.ok) _exit(4);  // only the kill may stop the stream
    // A checkpoint after every batch, so the snapshot_write and
    // snapshot_rename polls fall between appends throughout the run (the
    // WAL-size rule would not fire on a graph this small).
    if (!service.Checkpoint()) _exit(5);
  }
  _exit(0);  // kill point never reached at this nth — also legal
}

/// Forks the child, waits for the SIGKILL (or clean exit), then recovers
/// and differentially checks against a never-crashed replica.
void RunCrashCase(const std::string& point, uint64_t nth, uint64_t seed,
                  bool expect_kill) {
  SCOPED_TRACE("point=" + point + " nth=" + std::to_string(nth) +
               " seed=" + std::to_string(seed));
  ScopedTempDir dir;
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) RunChild(dir.path(), point, nth, seed);

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  if (WIFSIGNALED(status)) {
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
  } else {
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0) << "child failed before the kill";
    EXPECT_FALSE(expect_kill)
        << "kill point " << point << " was never polled";
  }

  // Recovery must succeed no matter where the kill landed.
  std::string error;
  auto store = persist::DurableStore::Open(dir.path(), StoreOptions(), &error);
  ASSERT_NE(store, nullptr) << error;
  ASSERT_TRUE(store->has_state());
  dyn::DeltaGraph recovered = store->TakeRecoveredGraph();
  const uint64_t version = recovered.version();
  ASSERT_LE(version, static_cast<uint64_t>(kBatchesPerRun));

  // Replica: the same deterministic prefix, never crashed.
  dyn::DeltaGraph replica(BaseGraph());
  const std::vector<dyn::UpdateBatch> batches = GenBatches(BaseGraph(), seed);
  for (uint64_t i = 0; i < version; ++i) {
    const dyn::ApplyResult r = replica.ApplyBatch(batches[i]);
    ASSERT_TRUE(r.ok) << r.error;
  }
  const Graph::CsrParts got = recovered.Materialize()->ToCsrParts();
  const Graph::CsrParts want = replica.Materialize()->ToCsrParts();
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(got.offsets, want.offsets);
  EXPECT_EQ(got.adjacency, want.adjacency);
  EXPECT_EQ(got.edge_labels, want.edge_labels);
  EXPECT_EQ(recovered.NumVertices(), replica.NumVertices());
  EXPECT_EQ(recovered.NumEdges(), replica.NumEdges());
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  ~CrashRecoveryTest() override { FaultInjector::Disarm(); }
};

// wal_append polls twice per append: nth=1 dies before the first byte of
// the first record, nth=4 dies mid-record in the second append — the
// genuine torn-tail case.
TEST_F(CrashRecoveryTest, KillBeforeFirstWalByte) {
  for (uint64_t seed : {11u, 22u, 33u}) {
    RunCrashCase("wal_append", 1, seed, /*expect_kill=*/true);
  }
}

TEST_F(CrashRecoveryTest, KillMidWalRecord) {
  for (uint64_t seed : {11u, 22u, 33u}) {
    RunCrashCase("wal_append", 4, seed, /*expect_kill=*/true);
  }
}

TEST_F(CrashRecoveryTest, KillAtFsync) {
  for (uint64_t seed : {11u, 22u, 33u}) {
    RunCrashCase("wal_fsync", 2, seed, /*expect_kill=*/true);
  }
}

TEST_F(CrashRecoveryTest, KillDuringSnapshotWrite) {
  // The child checkpoints after every batch, so the first batch's
  // checkpoint always reaches the point.
  for (uint64_t seed : {11u, 22u, 33u}) {
    RunCrashCase("snapshot_write", 1, seed, /*expect_kill=*/true);
  }
}

TEST_F(CrashRecoveryTest, KillAtSnapshotRename) {
  for (uint64_t seed : {11u, 22u, 33u}) {
    RunCrashCase("snapshot_rename", 1, seed, /*expect_kill=*/true);
  }
}

TEST_F(CrashRecoveryTest, KillLateInTheStream) {
  // Deep into the run: several checkpoints behind, mid-append ahead.
  for (uint64_t seed : {11u, 22u, 33u}) {
    RunCrashCase("wal_append", 17, seed, /*expect_kill=*/false);
  }
}

}  // namespace
}  // namespace daf

#else  // !__unix__

TEST(CrashRecoveryTest, SkippedOnNonUnix) { GTEST_SKIP(); }

#endif
