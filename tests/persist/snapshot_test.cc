#include "persist/snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dyn/delta_graph.h"
#include "graph/io.h"
#include "tests/persist/persist_test_util.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace daf::persist {
namespace {

using daf::testing::ReadFileBytes;
using daf::testing::ScopedTempDir;
using daf::testing::WriteFileBytes;

// Structural equality through the CSR export: labels, offsets, adjacency,
// and edge labels all byte-identical (GraphToText would drop edge labels).
void ExpectSameGraph(const Graph& a, const Graph& b) {
  const Graph::CsrParts pa = a.ToCsrParts();
  const Graph::CsrParts pb = b.ToCsrParts();
  EXPECT_EQ(pa.labels, pb.labels);
  EXPECT_EQ(pa.offsets, pb.offsets);
  EXPECT_EQ(pa.adjacency, pb.adjacency);
  EXPECT_EQ(pa.edge_labels, pb.edge_labels);
}

TEST(SnapshotTest, RoundTripPlainGraph) {
  Rng rng(7);
  const Graph g = daf::testing::RandomDataGraph(200, 600, 5, rng);
  ScopedTempDir dir;
  const std::string path = dir.File("g.dafs");
  std::string error;
  ASSERT_TRUE(WriteSnapshot(g, /*graph_version=*/42, path, &error)) << error;

  uint64_t version = 0;
  std::optional<Graph> loaded = LoadSnapshot(path, &version, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(version, 42u);
  ExpectSameGraph(g, *loaded);
  EXPECT_EQ(GraphToText(g), GraphToText(*loaded));
}

TEST(SnapshotTest, RoundTripEdgeLabels) {
  const Graph g = Graph::FromLabeledEdges(
      {1, 2, 1, 3}, {{0, 1}, {1, 2}, {2, 3}, {0, 3}}, {5, 7, 5, 9});
  ASSERT_TRUE(g.HasNontrivialEdgeLabels());
  ScopedTempDir dir;
  const std::string path = dir.File("g.dafs");
  std::string error;
  ASSERT_TRUE(WriteSnapshot(g, 1, path, &error)) << error;

  std::optional<SnapshotInfo> info = ReadSnapshotInfo(path, &error);
  ASSERT_TRUE(info.has_value()) << error;
  EXPECT_TRUE(info->has_edge_labels);

  std::optional<Graph> loaded = LoadSnapshot(path, nullptr, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_TRUE(loaded->HasNontrivialEdgeLabels());
  ExpectSameGraph(g, *loaded);
  EXPECT_EQ(loaded->EdgeLabelBetween(0, 3), g.EdgeLabelBetween(0, 3));
}

TEST(SnapshotTest, RoundTripTombstones) {
  // A materialized DeltaGraph keeps removed vertices as isolated
  // kTombstoneLabel vertices; the snapshot must preserve them so Restore
  // can revive them as dead (ids stay stable across a crash).
  dyn::DeltaGraph dg(daf::testing::MakeCycle({1, 2, 3, 1, 2}));
  dyn::UpdateBatch batch;
  batch.RemoveVertex(2);
  ASSERT_TRUE(dg.ApplyBatch(batch).ok);

  ScopedTempDir dir;
  const std::string path = dir.File("g.dafs");
  std::string error;
  ASSERT_TRUE(WriteSnapshot(*dg.Materialize(), dg.version(), path, &error))
      << error;

  uint64_t version = 0;
  std::optional<Graph> loaded = LoadSnapshot(path, &version, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ExpectSameGraph(*dg.Materialize(), *loaded);

  dyn::DeltaGraph restored =
      dyn::DeltaGraph::Restore(std::move(*loaded), version);
  EXPECT_EQ(restored.version(), dg.version());
  EXPECT_EQ(restored.NumVertices(), dg.NumVertices());
  EXPECT_FALSE(restored.Alive(2));
  EXPECT_TRUE(restored.Alive(0));
  EXPECT_EQ(restored.NumEdges(), dg.NumEdges());
}

TEST(SnapshotTest, InfoAndSniff) {
  const Graph g = daf::testing::MakePath({1, 2, 3});
  ScopedTempDir dir;
  const std::string snap = dir.File("g.dafs");
  const std::string text = dir.File("g.txt");
  std::string error;
  ASSERT_TRUE(WriteSnapshot(g, 9, snap, &error)) << error;
  ASSERT_TRUE(SaveGraph(g, text, &error)) << error;

  EXPECT_TRUE(SniffSnapshot(snap));
  EXPECT_FALSE(SniffSnapshot(text));
  EXPECT_FALSE(SniffSnapshot(dir.File("missing")));

  std::optional<SnapshotInfo> info = ReadSnapshotInfo(snap, &error);
  ASSERT_TRUE(info.has_value()) << error;
  EXPECT_EQ(info->graph_version, 9u);
  EXPECT_EQ(info->num_vertices, 3u);
  EXPECT_EQ(info->num_edges, 2u);
  EXPECT_FALSE(info->has_edge_labels);
}

TEST(SnapshotTest, LoadGraphAnyFormatDispatches) {
  const Graph g = daf::testing::MakeClique({1, 2, 3, 4});
  ScopedTempDir dir;
  std::string error;
  ASSERT_TRUE(WriteSnapshot(g, 0, dir.File("g.dafs"), &error)) << error;
  ASSERT_TRUE(SaveGraph(g, dir.File("g.txt"), &error)) << error;

  for (const char* name : {"g.dafs", "g.txt"}) {
    std::optional<Graph> loaded = LoadGraphAnyFormat(dir.File(name), &error);
    ASSERT_TRUE(loaded.has_value()) << name << ": " << error;
    EXPECT_EQ(GraphToText(g), GraphToText(*loaded)) << name;
  }
  EXPECT_FALSE(LoadGraphAnyFormat(dir.File("missing"), &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(SnapshotTest, TruncationIsTypedError) {
  Rng rng(11);
  const Graph g = daf::testing::RandomDataGraph(64, 128, 3, rng);
  ScopedTempDir dir;
  const std::string path = dir.File("g.dafs");
  std::string error;
  ASSERT_TRUE(WriteSnapshot(g, 3, path, &error)) << error;
  const std::vector<uint8_t> bytes = ReadFileBytes(path);

  // Every truncation point: header, table, and payload cuts all load-fail
  // cleanly (coarse stride keeps the sweep fast; the fuzz test goes finer).
  for (size_t cut = 0; cut < bytes.size(); cut += 13) {
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + static_cast<long>(cut));
    ASSERT_TRUE(WriteFileBytes(path, truncated));
    std::string load_error;
    EXPECT_FALSE(LoadSnapshot(path, nullptr, &load_error).has_value())
        << "cut at " << cut;
    EXPECT_FALSE(load_error.empty()) << "cut at " << cut;
  }
}

TEST(SnapshotTest, BitFlipIsTypedError) {
  const Graph g = daf::testing::MakeCycle({1, 2, 3, 4, 5, 6});
  ScopedTempDir dir;
  const std::string path = dir.File("g.dafs");
  std::string error;
  ASSERT_TRUE(WriteSnapshot(g, 3, path, &error)) << error;
  const std::vector<uint8_t> bytes = ReadFileBytes(path);

  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    std::vector<uint8_t> mutated = bytes;
    mutated[byte] ^= 0x10;
    ASSERT_TRUE(WriteFileBytes(path, mutated));
    std::string load_error;
    // Either a typed error, or (only possible for padding-free formats
    // like this one: every byte is covered by some CRC) never a crash.
    EXPECT_FALSE(LoadSnapshot(path, nullptr, &load_error).has_value())
        << "flipped byte " << byte;
  }
}

TEST(SnapshotTest, OversizedSectionLengthRejectedWithoutAllocation) {
  const Graph g = daf::testing::MakePath({1, 2, 3, 4});
  ScopedTempDir dir;
  const std::string path = dir.File("g.dafs");
  std::string error;
  ASSERT_TRUE(WriteSnapshot(g, 0, path, &error)) << error;
  std::vector<uint8_t> bytes = ReadFileBytes(path);

  // Section table entries start at byte 40; bytes 16..23 of an entry are
  // the u64 length. Blow the first section's length up to ~2^60 — a
  // reader that allocated before bounds-checking would OOM here.
  const size_t length_offset = 40 + 16;
  ASSERT_GT(bytes.size(), length_offset + 8);
  for (int i = 0; i < 8; ++i) bytes[length_offset + i] = 0xF0;
  ASSERT_TRUE(WriteFileBytes(path, bytes));
  std::string load_error;
  EXPECT_FALSE(LoadSnapshot(path, nullptr, &load_error).has_value());
  EXPECT_FALSE(load_error.empty());
}

TEST(SnapshotTest, WrongMagicAndVersion) {
  const Graph g = daf::testing::MakePath({1, 2});
  ScopedTempDir dir;
  const std::string path = dir.File("g.dafs");
  std::string error;
  ASSERT_TRUE(WriteSnapshot(g, 0, path, &error)) << error;
  std::vector<uint8_t> bytes = ReadFileBytes(path);

  std::vector<uint8_t> bad_magic = bytes;
  bad_magic[0] = 'X';
  ASSERT_TRUE(WriteFileBytes(path, bad_magic));
  EXPECT_FALSE(LoadSnapshot(path, nullptr, &error).has_value());

  // A future format version must be rejected, not misparsed. (Flipping the
  // version also breaks the header CRC; both layers refuse.)
  std::vector<uint8_t> bad_version = bytes;
  bad_version[4] = 0x7F;
  ASSERT_TRUE(WriteFileBytes(path, bad_version));
  EXPECT_FALSE(LoadSnapshot(path, nullptr, &error).has_value());
}

TEST(SnapshotTest, EmptyGraphRoundTrips) {
  const Graph g = Graph::FromEdges({}, {});
  ScopedTempDir dir;
  const std::string path = dir.File("empty.dafs");
  std::string error;
  ASSERT_TRUE(WriteSnapshot(g, 5, path, &error)) << error;
  uint64_t version = 0;
  std::optional<Graph> loaded = LoadSnapshot(path, &version, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(version, 5u);
  EXPECT_EQ(loaded->NumVertices(), 0u);
  EXPECT_EQ(loaded->NumEdges(), 0u);
}

}  // namespace
}  // namespace daf::persist
