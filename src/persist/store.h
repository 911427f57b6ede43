#ifndef DAF_PERSIST_STORE_H_
#define DAF_PERSIST_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dyn/delta_graph.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace daf::persist {

/// What recovery found and did (surfaced in the ServiceMetrics `persist`
/// block and asserted by the crash oracle).
struct RecoveryInfo {
  bool recovered = false;           // true when prior state was loaded
  uint64_t snapshot_version = 0;    // version of the snapshot restored
  uint64_t snapshots_skipped = 0;   // newer-but-corrupt snapshots passed over
  uint64_t wal_records_replayed = 0;
  uint64_t wal_records_skipped = 0;  // records at/below the snapshot version
  uint64_t wal_truncated_bytes = 0;  // torn tail removed from the last log
  /// Wall time of Open's recovery, and its three phases (they sum to it):
  /// listing + snapshot load, WAL scan + replay into the overlay (with
  /// torn-tail repair and reopening the log), and the one snapshot build
  /// that folds the replayed overlay into a fresh base.
  double recovery_ms = 0;
  double load_ms = 0;
  double replay_ms = 0;
  double build_ms = 0;
};

/// Counters for the metrics JSON.
struct PersistStats {
  uint64_t wal_bytes = 0;
  uint64_t wal_appended_batches = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t snapshots_written = 0;
  uint64_t persist_errors = 0;   // non-fatal IO errors (failed checkpoint, ...)
  bool failed = false;           // fail-stop latch tripped
  double last_snapshot_ms = 0;   // wall time of the last checkpoint
  uint64_t snapshot_bytes = 0;   // file size of the newest snapshot
  uint64_t wal_tail_bytes = 0;   // WAL record bytes a restart would replay
  RecoveryInfo recovery;
};

/// A directory of durable match-service state:
///
///   <dir>/snapshot-<version>.dafs   versioned binary CSR snapshots
///   <dir>/wal-<version>.dafw        WAL segments; <version> is the
///                                   snapshot version the segment extends
///   <dir>/*.tmp                     in-flight writes (deleted at Open)
///
/// Protocol (docs/PERSISTENCE.md):
///   * Every committed batch is appended (its *normalized* form) to the
///     active WAL segment before DeltaGraph applies it.
///   * A checkpoint (due per CheckpointDue()) writes snapshot-<v>.dafs.tmp,
///     fsyncs, renames into place, fsyncs the directory, then starts a
///     fresh wal-<v>.dafw and retires files older than the retention
///     window. The rename is the commit point — a crash on either side
///     leaves a recoverable dir.
///   * Open() recovers: newest snapshot that validates (corrupt ones are
///     skipped with a counter; if every snapshot is corrupt that is an
///     error, not a silent empty start), then every WAL segment in order —
///     records at or below the snapshot version are skipped, the rest must
///     be consecutive. A torn tail in the final segment is truncated; torn
///     or corrupt bytes anywhere else are a typed error. Replay never
///     compacts; one snapshot build at the end folds the tail into the
///     recovered graph's base, and that snapshot stays cached.
///
/// Concurrency: writer methods (AppendBatch/Rollback/Checkpoint/Sync) must
/// be externally serialized — MatchService's update mutex does — while
/// Stats() may race them (an internal mutex makes it safe).
///
/// Fail-stop: if a rollback cannot restore the WAL to its pre-append state
/// the store latches `failed` and refuses further appends; the one thing a
/// durable log must never do is disagree with what the service reported
/// committed.
class DurableStore {
 public:
  struct Options {
    FsyncPolicy fsync_policy = FsyncPolicy::kEveryBatch;
    uint64_t fsync_interval_ms = 50;
    /// Snapshots kept after a checkpoint (older ones + their WAL segments
    /// are deleted). At least 1; 2 keeps a fallback if the newest is
    /// damaged later.
    uint32_t snapshots_to_keep = 2;
  };

  /// Opens (creating the directory if needed) and runs recovery. Returns
  /// nullptr with `*error` on unrecoverable state (mid-file WAL
  /// corruption, every snapshot corrupt, IO failure). A clean empty
  /// directory opens successfully with has_state() == false.
  static std::unique_ptr<DurableStore> Open(const std::string& dir,
                                            const Options& options,
                                            std::string* error);

  static constexpr uint64_t kCheckpointFloorBytes = uint64_t{64} << 10;
  static constexpr uint64_t kCheckpointSnapshotDivisor = 4;

  /// True when Open() recovered prior state; TakeRecoveredGraph() is then
  /// valid exactly once.
  bool has_state() const { return recovered_graph_.has_value(); }

  /// The recovered DeltaGraph while the store still owns it: version
  /// restored, tombstones dead, WAL replayed and compacted, so its overlay
  /// is empty and Materialize() returns the snapshot built at Open.
  /// Precondition: has_state().
  const dyn::DeltaGraph& recovered_graph() const { return *recovered_graph_; }

  /// Moves out the recovered DeltaGraph (see recovered_graph()).
  /// Precondition: has_state().
  dyn::DeltaGraph TakeRecoveredGraph();

  /// Seeds an empty directory: writes snapshot-<version> of `base` and
  /// starts its WAL segment. Precondition: !has_state().
  bool InitializeFresh(const Graph& base, uint64_t version,
                       std::string* error);

  /// Appends the normalized batch that is about to be applied at
  /// `version`. On failure nothing was persisted and the caller must
  /// reject the batch (append-before-apply: an unlogged batch must never
  /// be applied).
  bool AppendBatch(const dyn::NormalizedBatch& net,
                   const std::vector<Label>& new_vertex_labels,
                   uint64_t version, std::string* error);

  /// Undoes the last AppendBatch because the apply failed. If the WAL
  /// cannot be rolled back the store latches fail-stop.
  bool RollbackLastAppend(std::string* error);

  /// Fsyncs the active WAL segment (graceful shutdown, explicit flush).
  bool Sync(std::string* error);

  /// Writes a snapshot of `g` (the materialized state at `version`),
  /// rotates the WAL, and applies retention. Failure is non-fatal: the
  /// WAL still holds everything since the last good snapshot.
  bool Checkpoint(const Graph& g, uint64_t version, std::string* error);

  /// True once the WAL tail a restart would replay (the records replayed at
  /// Open plus those appended since; a snapshot resets it) reaches
  /// max(kCheckpointFloorBytes, snapshot bytes / kCheckpointSnapshotDivisor).
  /// The floor keeps small graphs from checkpointing every few batches.
  bool CheckpointDue() const;

  PersistStats Stats() const;
  const RecoveryInfo& recovery() const { return recovery_; }
  const std::string& dir() const { return dir_; }
  bool failed() const;

 private:
  DurableStore(std::string dir, Options options);

  bool Recover(std::string* error);
  bool SwitchWal(uint64_t version, std::string* error);
  void ApplyRetention();

  const std::string dir_;
  const Options options_;

  mutable std::mutex mutex_;
  std::unique_ptr<WalWriter> wal_;
  std::optional<dyn::DeltaGraph> recovered_graph_;
  RecoveryInfo recovery_;
  uint64_t snapshots_written_ = 0;
  uint64_t persist_errors_ = 0;
  double last_snapshot_ms_ = 0;
  uint64_t snapshot_bytes_ = 0;
  uint64_t wal_tail_bytes_ = 0;
  bool failed_ = false;
  // Stats of retired WAL segments (rotation resets the writer's own).
  uint64_t retired_wal_records_ = 0;
  uint64_t retired_wal_fsyncs_ = 0;
};

}  // namespace daf::persist

#endif  // DAF_PERSIST_STORE_H_
