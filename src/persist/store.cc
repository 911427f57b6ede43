#include "persist/store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

#include "util/fault_inject.h"

namespace daf::persist {
namespace {

constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".dafs";
constexpr char kWalPrefix[] = "wal-";
constexpr char kWalSuffix[] = ".dafw";
constexpr char kTmpSuffix[] = ".tmp";

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = "store: " + msg;
  return false;
}

std::string VersionedName(const char* prefix, uint64_t version,
                          const char* suffix) {
  char buf[64];
  // Zero-padded so lexicographic directory order is version order.
  std::snprintf(buf, sizeof(buf), "%s%020" PRIu64 "%s", prefix, version,
                suffix);
  return buf;
}

bool ParseVersioned(const std::string& name, const char* prefix,
                    const char* suffix, uint64_t* version) {
  const size_t plen = std::strlen(prefix);
  const size_t slen = std::strlen(suffix);
  if (name.size() <= plen + slen) return false;
  if (name.compare(0, plen, prefix) != 0) return false;
  if (name.compare(name.size() - slen, slen, suffix) != 0) return false;
  uint64_t v = 0;
  for (size_t i = plen; i < name.size() - slen; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    v = v * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *version = v;
  return true;
}

bool EndsWith(const std::string& name, const char* suffix) {
  const size_t slen = std::strlen(suffix);
  return name.size() >= slen &&
         name.compare(name.size() - slen, slen, suffix) == 0;
}

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(d);
  return names;
}

bool FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

double MsBetween(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return MsBetween(since, std::chrono::steady_clock::now());
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

}  // namespace

DurableStore::DurableStore(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {}

std::unique_ptr<DurableStore> DurableStore::Open(const std::string& dir,
                                                 const Options& options,
                                                 std::string* error) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    Fail(error, "cannot create data dir " + dir);
    return nullptr;
  }
  std::unique_ptr<DurableStore> store(new DurableStore(dir, options));
  if (!store->Recover(error)) return nullptr;
  return store;
}

bool DurableStore::Recover(std::string* error) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<uint64_t> snapshots;
  std::vector<uint64_t> wals;
  for (const std::string& name : ListDir(dir_)) {
    uint64_t v = 0;
    if (EndsWith(name, kTmpSuffix)) {
      // An in-flight write that never reached its rename: dead weight.
      std::remove((dir_ + "/" + name).c_str());
    } else if (ParseVersioned(name, kSnapshotPrefix, kSnapshotSuffix, &v)) {
      snapshots.push_back(v);
    } else if (ParseVersioned(name, kWalPrefix, kWalSuffix, &v)) {
      wals.push_back(v);
    }
  }
  if (snapshots.empty()) {
    if (!wals.empty()) {
      return Fail(error, "wal segments present without any snapshot");
    }
    return true;  // fresh directory; InitializeFresh seeds it
  }

  // Newest snapshot that validates wins; corrupt ones are skipped (the
  // retention window keeps a fallback), but *every* snapshot failing is an
  // error — recovery must never silently restart empty.
  std::sort(snapshots.rbegin(), snapshots.rend());
  std::optional<Graph> base;
  uint64_t snapshot_version = 0;
  std::string last_error = "none found";
  for (uint64_t v : snapshots) {
    const std::string path = dir_ + "/" + VersionedName(kSnapshotPrefix, v,
                                                        kSnapshotSuffix);
    base = LoadSnapshot(path, &snapshot_version, &last_error);
    if (base.has_value()) {
      snapshot_bytes_ = FileBytes(path);
      break;
    }
    ++recovery_.snapshots_skipped;
  }
  if (!base.has_value()) {
    return Fail(error, "every snapshot is corrupt; last: " + last_error);
  }
  // Replay never compacts: a mid-replay compaction would rebuild the whole
  // CSR for a state recovery passes straight through. One build at the
  // end (below) folds the whole tail.
  recovered_graph_.emplace(
      dyn::DeltaGraph::Restore(std::move(*base), snapshot_version));
  recovery_.recovered = true;
  recovery_.snapshot_version = snapshot_version;
  const auto t_loaded = std::chrono::steady_clock::now();
  recovery_.load_ms = MsBetween(t0, t_loaded);

  // Replay every segment in order. Records at or below the snapshot
  // version were folded into it already; the rest must be consecutive.
  std::sort(wals.begin(), wals.end());
  bool last_segment_dropped = false;
  for (size_t i = 0; i < wals.size(); ++i) {
    const bool last = i + 1 == wals.size();
    const std::string path =
        dir_ + "/" + VersionedName(kWalPrefix, wals[i], kWalSuffix);
    WalScanResult scan = ScanWal(
        path, [&](WalRecord&& record, std::string* cb_error) {
          if (record.version <= snapshot_version) {
            ++recovery_.wal_records_skipped;
            return true;
          }
          if (record.version != recovered_graph_->version() + 1) {
            *cb_error = "out-of-sequence record (version " +
                        std::to_string(record.version) + " at graph version " +
                        std::to_string(recovered_graph_->version()) + ")";
            return false;
          }
          const dyn::NormalizedBatch net = ToNormalizedBatch(
              record, recovered_graph_->NumVertices());
          const dyn::ApplyResult applied =
              recovered_graph_->ApplyNormalized(net,
                                                record.new_vertex_labels);
          if (!applied.ok) {
            *cb_error = "replay failed: " + applied.error;
            return false;
          }
          ++recovery_.wal_records_replayed;
          wal_tail_bytes_ += WalRecordBytes(record);
          return true;
        });
    if (!scan.ok) {
      return Fail(error, path + ": " + scan.error);
    }
    if (scan.torn_bytes > 0) {
      if (!last) {
        // Rotated segments are immutable once a later one exists; torn
        // bytes here mean someone altered committed history.
        return Fail(error, path + ": torn tail in a non-final wal segment");
      }
      recovery_.wal_truncated_bytes = scan.torn_bytes;
      if (scan.valid_bytes == 0) {
        // Even the header is torn (crash during segment creation): the
        // file carries no records — recreate it below.
        std::remove(path.c_str());
        last_segment_dropped = true;
      } else if (!RepairTornTail(path, scan.valid_bytes, error)) {
        return false;
      }
    }
  }

  // Resume appending: reopen the final segment, or start a fresh one when
  // none is usable (fresh checkpoint crash paths).
  if (!wals.empty() && !last_segment_dropped) {
    const std::string path =
        dir_ + "/" + VersionedName(kWalPrefix, wals.back(), kWalSuffix);
    wal_ = WalWriter::OpenForAppend(path, options_.fsync_policy,
                                    options_.fsync_interval_ms, error);
    if (wal_ == nullptr) return false;
  } else if (!SwitchWal(recovered_graph_->version(), error)) {
    return false;
  }
  retired_wal_records_ =
      recovery_.wal_records_replayed + recovery_.wal_records_skipped;
  const auto t_replayed = std::chrono::steady_clock::now();
  recovery_.replay_ms = MsBetween(t_loaded, t_replayed);
  // The one snapshot build: the overlay folds into a fresh base whose
  // snapshot stays cached at the recovered version, so the service's
  // first job finds it ready.
  recovered_graph_->Compact();
  const auto t_built = std::chrono::steady_clock::now();
  recovery_.build_ms = MsBetween(t_replayed, t_built);
  recovery_.recovery_ms = MsBetween(t0, t_built);
  return true;
}

dyn::DeltaGraph DurableStore::TakeRecoveredGraph() {
  dyn::DeltaGraph g = std::move(*recovered_graph_);
  recovered_graph_.reset();
  return g;
}

bool DurableStore::SwitchWal(uint64_t version, std::string* error) {
  std::unique_ptr<WalWriter> next = WalWriter::Create(
      dir_ + "/" + VersionedName(kWalPrefix, version, kWalSuffix), version,
      options_.fsync_policy, options_.fsync_interval_ms, error);
  if (next == nullptr) return false;
  if (wal_ != nullptr) {
    retired_wal_records_ += wal_->stats().appended_records;
    retired_wal_fsyncs_ += wal_->stats().fsyncs;
  }
  wal_ = std::move(next);
  return true;
}

bool DurableStore::InitializeFresh(const Graph& base, uint64_t version,
                                   std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string final_name =
      VersionedName(kSnapshotPrefix, version, kSnapshotSuffix);
  const std::string tmp = dir_ + "/" + final_name + kTmpSuffix;
  if (!WriteSnapshot(base, version, tmp, error)) return false;
  if (FAULT_POINT(snapshot_rename)) {
    std::remove(tmp.c_str());
    return Fail(error, "injected fault: snapshot_rename");
  }
  if (std::rename(tmp.c_str(), (dir_ + "/" + final_name).c_str()) != 0) {
    std::remove(tmp.c_str());
    return Fail(error, "cannot rename " + tmp);
  }
  if (!FsyncDir(dir_)) return Fail(error, "cannot fsync data dir");
  ++snapshots_written_;
  snapshot_bytes_ = FileBytes(dir_ + "/" + final_name);
  return SwitchWal(version, error);
}

bool DurableStore::AppendBatch(const dyn::NormalizedBatch& net,
                               const std::vector<Label>& new_vertex_labels,
                               uint64_t version, std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (failed_) return Fail(error, "store is fail-stopped");
  if (wal_ == nullptr) return Fail(error, "store not initialized");
  const uint64_t before = wal_->stats().bytes;
  if (!wal_->Append(MakeWalRecord(net, new_vertex_labels, version), error)) {
    return false;
  }
  wal_tail_bytes_ += wal_->stats().bytes - before;
  return true;
}

bool DurableStore::RollbackLastAppend(std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (wal_ == nullptr) return Fail(error, "store not initialized");
  const uint64_t before = wal_->stats().bytes;
  if (!wal_->RollbackLastAppend(error)) {
    // The log now claims a batch the graph never applied. Refusing all
    // future appends keeps the durable history a prefix of the truth.
    failed_ = true;
    ++persist_errors_;
    return false;
  }
  wal_tail_bytes_ -= before - wal_->stats().bytes;
  return true;
}

bool DurableStore::Sync(std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (wal_ == nullptr) return true;
  if (!wal_->Sync(error)) {
    ++persist_errors_;
    return false;
  }
  return true;
}

bool DurableStore::Checkpoint(const Graph& g, uint64_t version,
                              std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto t0 = std::chrono::steady_clock::now();
  const std::string final_name =
      VersionedName(kSnapshotPrefix, version, kSnapshotSuffix);
  const std::string tmp = dir_ + "/" + final_name + kTmpSuffix;
  if (!WriteSnapshot(g, version, tmp, error)) {
    ++persist_errors_;
    return false;
  }
  if (FAULT_POINT(snapshot_rename)) {
    std::remove(tmp.c_str());
    ++persist_errors_;
    return Fail(error, "injected fault: snapshot_rename");
  }
  if (std::rename(tmp.c_str(), (dir_ + "/" + final_name).c_str()) != 0) {
    std::remove(tmp.c_str());
    ++persist_errors_;
    return Fail(error, "cannot rename " + tmp);
  }
  if (!FsyncDir(dir_)) {
    ++persist_errors_;
    return Fail(error, "cannot fsync data dir");
  }
  ++snapshots_written_;
  last_snapshot_ms_ = ElapsedMs(t0);
  // Records up to `version` are in the snapshot now; a restart skips them
  // even if the rotation below fails.
  snapshot_bytes_ = FileBytes(dir_ + "/" + final_name);
  wal_tail_bytes_ = 0;
  std::string rotate_error;
  if (!SwitchWal(version, &rotate_error)) {
    // The snapshot is durable; appends just continue into the old segment
    // (recovery skips its pre-snapshot records by version). Retention is
    // skipped so that segment survives.
    ++persist_errors_;
    return true;
  }
  ApplyRetention();
  return true;
}

bool DurableStore::CheckpointDue() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return wal_tail_bytes_ >=
         std::max(kCheckpointFloorBytes,
                  snapshot_bytes_ / kCheckpointSnapshotDivisor);
}

void DurableStore::ApplyRetention() {
  std::vector<uint64_t> snapshots;
  std::vector<uint64_t> wals;
  for (const std::string& name : ListDir(dir_)) {
    uint64_t v = 0;
    if (ParseVersioned(name, kSnapshotPrefix, kSnapshotSuffix, &v)) {
      snapshots.push_back(v);
    } else if (ParseVersioned(name, kWalPrefix, kWalSuffix, &v)) {
      wals.push_back(v);
    }
  }
  std::sort(snapshots.rbegin(), snapshots.rend());
  const uint32_t keep = std::max<uint32_t>(options_.snapshots_to_keep, 1);
  if (snapshots.size() <= keep) return;
  const uint64_t oldest_kept = snapshots[keep - 1];
  for (size_t i = keep; i < snapshots.size(); ++i) {
    std::remove((dir_ + "/" + VersionedName(kSnapshotPrefix, snapshots[i],
                                            kSnapshotSuffix))
                    .c_str());
  }
  // Keep every segment the oldest kept snapshot might need: the newest
  // segment at or below it, plus everything later.
  std::sort(wals.begin(), wals.end());
  uint64_t cut = 0;
  for (uint64_t v : wals) {
    if (v <= oldest_kept) cut = v;
  }
  for (uint64_t v : wals) {
    if (v < cut) {
      std::remove(
          (dir_ + "/" + VersionedName(kWalPrefix, v, kWalSuffix)).c_str());
    }
  }
}

PersistStats DurableStore::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  PersistStats stats;
  if (wal_ != nullptr) {
    stats.wal_bytes = wal_->stats().bytes;
    stats.wal_appended_batches =
        retired_wal_records_ + wal_->stats().appended_records;
    stats.wal_fsyncs = retired_wal_fsyncs_ + wal_->stats().fsyncs;
  }
  stats.snapshots_written = snapshots_written_;
  stats.persist_errors = persist_errors_;
  stats.failed = failed_;
  stats.last_snapshot_ms = last_snapshot_ms_;
  stats.snapshot_bytes = snapshot_bytes_;
  stats.wal_tail_bytes = wal_tail_bytes_;
  stats.recovery = recovery_;
  return stats;
}

bool DurableStore::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

}  // namespace daf::persist
