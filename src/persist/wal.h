#ifndef DAF_PERSIST_WAL_H_
#define DAF_PERSIST_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dyn/update_batch.h"
#include "graph/graph.h"

namespace daf::persist {

/// The "DAFW" write-ahead log (docs/PERSISTENCE.md).
///
/// One file = a 20-byte header (u32 magic "DAFW" | u32 format_version |
/// u64 start_version | u32 header_crc32) followed by length-prefixed
/// records: u32 payload_length | u32 payload_crc32 | payload. The payload
/// serializes one *normalized* batch — the net change DeltaGraph actually
/// installed, plus the labels of vertices it added — tagged with the graph
/// version the batch produced. Replaying normalized (not raw) batches is
/// what keeps label-change edges exact: a raw UpdateBatch re-application
/// would let its removals shadow the reinsertion.
///
/// Durability is a policy choice per writer:
///   * kEveryBatch — fsync after each append (no committed batch is ever
///     lost, slowest);
///   * kInterval   — fsync at most once per `fsync_interval_ms` (bounded
///     loss window on power failure; a clean SIGKILL loses nothing since
///     written pages survive the process);
///   * kOff        — never fsync except on explicit Sync() (fastest; the
///     bench_dynamic --persist gate measures this mode's overhead).
enum class FsyncPolicy { kEveryBatch, kInterval, kOff };

const char* FsyncPolicyName(FsyncPolicy policy);
/// Parses "every" / "interval" / "off"; returns false on anything else.
bool ParseFsyncPolicy(const std::string& name, FsyncPolicy* out);

inline constexpr uint32_t kWalFormatVersion = 1;

/// One durable record: the net change of a committed batch. `version` is
/// the DeltaGraph version *after* the batch (records in a healthy log are
/// consecutive). `new_vertex_labels` align with the ids the batch
/// assigned, which replay recomputes as NumVertices(), NumVertices()+1, …
struct WalRecord {
  uint64_t version = 0;
  std::vector<Label> new_vertex_labels;
  std::vector<dyn::EdgeUpdate> inserts;
  std::vector<dyn::EdgeUpdate> removes;
  std::vector<VertexId> removed_vertices;
};

/// Builds the record for a batch: `net` from DeltaGraph::Normalize,
/// `new_vertex_labels` from the originating batch's add_vertices, and the
/// version the apply will produce.
WalRecord MakeWalRecord(const dyn::NormalizedBatch& net,
                        const std::vector<Label>& new_vertex_labels,
                        uint64_t version);

/// Bytes `record` occupies in a log: the record header plus its payload.
uint64_t WalRecordBytes(const WalRecord& record);

/// Reconstructs the NormalizedBatch for replay. `first_new_vertex_id` is
/// the replaying graph's current NumVertices().
dyn::NormalizedBatch ToNormalizedBatch(const WalRecord& record,
                                       VertexId first_new_vertex_id);

/// Appender. Writes go straight to a file descriptor (no stdio buffer), so
/// after a SIGKILL the file holds exactly the bytes written — at worst one
/// torn final record, which recovery truncates. Not thread-safe; the
/// caller serializes (MatchService's update mutex already does).
///
/// Fault points: `wal_append` is polled twice per append — before the
/// first byte (clean simulated failure) and mid-record (simulated failure
/// rolls the partial bytes back; a crash schedule leaves a genuine torn
/// tail). `wal_fsync` is polled before each policy-driven fsync.
class WalWriter {
 public:
  struct Stats {
    uint64_t appended_records = 0;
    uint64_t fsyncs = 0;
    uint64_t bytes = 0;  // current file size
  };

  /// Creates a fresh log at `path` (truncating), writing + fsyncing the
  /// header. `start_version` is the version of the snapshot this log
  /// extends; replay skips nothing below it.
  static std::unique_ptr<WalWriter> Create(const std::string& path,
                                           uint64_t start_version,
                                           FsyncPolicy policy,
                                           uint64_t fsync_interval_ms,
                                           std::string* error);

  /// Opens an existing, already scanned-and-repaired log for appending.
  static std::unique_ptr<WalWriter> OpenForAppend(const std::string& path,
                                                  FsyncPolicy policy,
                                                  uint64_t fsync_interval_ms,
                                                  std::string* error);

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record and applies the fsync policy. On failure (fault or
  /// IO error) any partially written bytes are truncated away — the file
  /// is exactly as before the call — and false is returned.
  bool Append(const WalRecord& record, std::string* error);

  /// Undoes the most recent successful Append (the batch it logged failed
  /// to apply). Only valid directly after that Append.
  bool RollbackLastAppend(std::string* error);

  /// Unconditional fsync (graceful shutdown, policy kOff checkpoints).
  bool Sync(std::string* error);

  const Stats& stats() const { return stats_; }
  const std::string& path() const { return path_; }

 private:
  WalWriter(int fd, std::string path, uint64_t size, FsyncPolicy policy,
            uint64_t fsync_interval_ms);
  bool SyncNow(std::string* error);
  bool TruncateTo(uint64_t size, std::string* error);

  int fd_ = -1;
  std::string path_;
  FsyncPolicy policy_;
  uint64_t fsync_interval_ms_;
  uint64_t last_append_offset_ = 0;
  int64_t last_sync_ms_ = 0;  // steady-clock ms of the last fsync
  Stats stats_;
};

/// Result of scanning a log.
struct WalScanResult {
  bool ok = false;         // false => `error` (mid-file corruption, ...)
  std::string error;
  uint64_t start_version = 0;  // from the header
  uint64_t records = 0;        // records delivered to the callback
  uint64_t valid_bytes = 0;    // prefix length up to the last good record
  uint64_t torn_bytes = 0;     // trailing bytes past valid_bytes (torn tail)
};

/// Scans `path`, invoking `on_record` for each CRC-valid record in order.
///
/// Tail rule: a record whose extent runs past EOF, or whose CRC fails with
/// the record ending exactly at EOF, is a *torn tail* — the scan stops,
/// reports ok with torn_bytes > 0, and the caller truncates (see
/// RepairTornTail). A CRC failure with further bytes beyond the record is
/// *mid-file corruption*: ok = false with a typed error, because silently
/// resuming past it would replay a different history than was committed.
/// `on_record` may abort the scan by returning false with `*error` set.
WalScanResult ScanWal(
    const std::string& path,
    const std::function<bool(WalRecord&&, std::string* error)>& on_record);

/// Truncates `path` to `valid_bytes` (a torn tail found by ScanWal).
bool RepairTornTail(const std::string& path, uint64_t valid_bytes,
                    std::string* error);

}  // namespace daf::persist

#endif  // DAF_PERSIST_WAL_H_
