#ifndef DAF_PERSIST_SNAPSHOT_H_
#define DAF_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <optional>
#include <string>

#include "graph/graph.h"

namespace daf::persist {

/// The "DAFS" versioned binary CSR snapshot format (docs/PERSISTENCE.md).
///
/// Layout (all integers little-endian/host):
///
///   header (40 bytes):
///     u32 magic "DAFS" | u32 format_version | u64 graph_version |
///     u32 num_vertices | u32 flags (bit0 = edge-label section present) |
///     u64 num_edges | u32 section_count | u32 header_crc32
///   section table (section_count x 24 bytes, then u32 table_crc32):
///     u32 section_id | u32 payload_crc32 | u64 file_offset | u64 length
///   section payloads at their stated offsets:
///     1 labels    — u32 x |V|   (original label space, incl. tombstones)
///     2 offsets   — u64 x |V|+1 (CSR offsets)
///     3 adjacency — u32 x 2|E|  (per-vertex (dense label, id)-sorted)
///     4 edge labels — u32 x 2|E|, only when flags bit0 is set
///
/// Every region is covered by a CRC32 (crc32.h), so any corruption —
/// flipped bits, truncation, oversized section lengths — surfaces as a
/// typed load error, never UB; structural invariants are then re-checked
/// by Graph::FromCsrParts. Loading is bulk array reads plus an O(V + E
/// log deg) validation pass: no text parsing, no sorting — the cold-start
/// win measured by bench_recovery.

inline constexpr uint32_t kSnapshotFormatVersion = 1;

/// Header fields of a snapshot file (cheap to read: header only).
struct SnapshotInfo {
  uint64_t graph_version = 0;
  uint32_t num_vertices = 0;
  uint64_t num_edges = 0;
  bool has_edge_labels = false;
};

/// Writes `g` (at dynamic-graph version `graph_version`) to `path`,
/// fsyncing before close. Not atomic on its own — callers needing
/// crash-safe installation write to a temp path and rename (DurableStore
/// does; see FAULT_POINT(snapshot_rename) there). Polls
/// FAULT_POINT(snapshot_write) once per section, so a fault schedule can
/// fail — or a crash harness can SIGKILL — mid-file.
bool WriteSnapshot(const Graph& g, uint64_t graph_version,
                   const std::string& path, std::string* error);

/// Loads a snapshot. On success fills `*graph_version` (when non-null).
/// On any corruption or invariant violation returns std::nullopt with a
/// typed message in `*error`.
std::optional<Graph> LoadSnapshot(const std::string& path,
                                  uint64_t* graph_version,
                                  std::string* error);

/// Validates and returns just the header of a snapshot file.
std::optional<SnapshotInfo> ReadSnapshotInfo(const std::string& path,
                                             std::string* error);

/// True when the file begins with the DAFS magic.
bool SniffSnapshot(const std::string& path);

/// Loads a graph from any supported on-disk format, dispatching on the
/// leading magic: "DAFS" snapshot, else the text format. Lets match_cli /
/// daf_server `--data` accept both.
std::optional<Graph> LoadGraphAnyFormat(const std::string& path,
                                        std::string* error);

}  // namespace daf::persist

#endif  // DAF_PERSIST_SNAPSHOT_H_
