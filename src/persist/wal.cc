#include "persist/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "persist/crc32.h"
#include "util/fault_inject.h"

namespace daf::persist {
namespace {

// "DAFW" as a little-endian u32.
constexpr uint32_t kMagic = 0x57464144u;
constexpr uint64_t kHeaderBytes = 20;  // magic, version, start_version, crc
constexpr uint64_t kRecordHeaderBytes = 8;  // payload length + payload crc
// u64 version + four u32 element counts: the smallest legal payload.
constexpr uint32_t kMinPayloadBytes = 24;
// Hard cap on one record: a corrupt length field can never trigger a
// multi-gigabyte allocation.
constexpr uint32_t kMaxPayloadBytes = uint32_t{1} << 28;

void Put32(std::vector<uint8_t>& buf, uint32_t v) {
  const size_t at = buf.size();
  buf.resize(at + sizeof(v));
  std::memcpy(buf.data() + at, &v, sizeof(v));
}

void Put64(std::vector<uint8_t>& buf, uint64_t v) {
  const size_t at = buf.size();
  buf.resize(at + sizeof(v));
  std::memcpy(buf.data() + at, &v, sizeof(v));
}

/// Bounds-checked little reader over a payload buffer.
struct Cursor {
  const uint8_t* p;
  size_t left;
  bool ok = true;

  uint32_t Get32() {
    uint32_t v = 0;
    if (left < sizeof(v)) {
      ok = false;
      return 0;
    }
    std::memcpy(&v, p, sizeof(v));
    p += sizeof(v);
    left -= sizeof(v);
    return v;
  }
  uint64_t Get64() {
    uint64_t v = 0;
    if (left < sizeof(v)) {
      ok = false;
      return 0;
    }
    std::memcpy(&v, p, sizeof(v));
    p += sizeof(v);
    left -= sizeof(v);
    return v;
  }
};

std::vector<uint8_t> EncodePayload(const WalRecord& r) {
  std::vector<uint8_t> buf;
  buf.reserve(WalRecordBytes(r) - kRecordHeaderBytes);
  Put64(buf, r.version);
  Put32(buf, static_cast<uint32_t>(r.new_vertex_labels.size()));
  for (Label l : r.new_vertex_labels) Put32(buf, l);
  auto put_edges = [&buf](const std::vector<dyn::EdgeUpdate>& edges) {
    Put32(buf, static_cast<uint32_t>(edges.size()));
    for (const dyn::EdgeUpdate& e : edges) {
      Put32(buf, e.u);
      Put32(buf, e.v);
      Put32(buf, e.edge_label);
    }
  };
  put_edges(r.inserts);
  put_edges(r.removes);
  Put32(buf, static_cast<uint32_t>(r.removed_vertices.size()));
  for (VertexId v : r.removed_vertices) Put32(buf, v);
  return buf;
}

bool DecodePayload(const uint8_t* data, size_t len, WalRecord* out) {
  Cursor c{data, len};
  out->version = c.Get64();
  auto get_count = [&c, len]() -> uint32_t {
    const uint32_t n = c.Get32();
    // Each element is at least 4 bytes, so a count beyond len/4 cannot be
    // honest — reject before resizing anything.
    if (n > len / 4) c.ok = false;
    return c.ok ? n : 0;
  };
  uint32_t n = get_count();
  out->new_vertex_labels.resize(n);
  for (uint32_t i = 0; i < n; ++i) out->new_vertex_labels[i] = c.Get32();
  auto get_edges = [&](std::vector<dyn::EdgeUpdate>* edges) {
    const uint32_t count = get_count();
    edges->resize(c.ok ? count : 0);
    for (uint32_t i = 0; i < count && c.ok; ++i) {
      (*edges)[i].u = c.Get32();
      (*edges)[i].v = c.Get32();
      (*edges)[i].edge_label = c.Get32();
    }
  };
  get_edges(&out->inserts);
  get_edges(&out->removes);
  n = get_count();
  out->removed_vertices.resize(c.ok ? n : 0);
  for (uint32_t i = 0; i < n && c.ok; ++i) {
    out->removed_vertices[i] = c.Get32();
  }
  return c.ok && c.left == 0;
}

std::vector<uint8_t> EncodeHeader(uint64_t start_version) {
  std::vector<uint8_t> buf;
  Put32(buf, kMagic);
  Put32(buf, kWalFormatVersion);
  Put64(buf, start_version);
  Put32(buf, Crc32(buf.data(), buf.size()));
  return buf;
}

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = "wal: " + msg;
  return false;
}

bool WriteAll(int fd, const uint8_t* data, size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n <= 0) return false;
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

int64_t SteadyMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kEveryBatch:
      return "every";
    case FsyncPolicy::kInterval:
      return "interval";
    case FsyncPolicy::kOff:
      return "off";
  }
  return "?";
}

bool ParseFsyncPolicy(const std::string& name, FsyncPolicy* out) {
  if (name == "every") {
    *out = FsyncPolicy::kEveryBatch;
  } else if (name == "interval") {
    *out = FsyncPolicy::kInterval;
  } else if (name == "off") {
    *out = FsyncPolicy::kOff;
  } else {
    return false;
  }
  return true;
}

WalRecord MakeWalRecord(const dyn::NormalizedBatch& net,
                        const std::vector<Label>& new_vertex_labels,
                        uint64_t version) {
  WalRecord r;
  r.version = version;
  r.new_vertex_labels = new_vertex_labels;
  r.inserts = net.inserts;
  r.removes = net.removes;
  r.removed_vertices = net.removed_vertices;
  return r;
}

uint64_t WalRecordBytes(const WalRecord& r) {
  return kRecordHeaderBytes + kMinPayloadBytes +
         4 * r.new_vertex_labels.size() +
         12 * (r.inserts.size() + r.removes.size()) +
         4 * r.removed_vertices.size();
}

dyn::NormalizedBatch ToNormalizedBatch(const WalRecord& record,
                                       VertexId first_new_vertex_id) {
  dyn::NormalizedBatch net;
  net.inserts = record.inserts;
  net.removes = record.removes;
  net.removed_vertices = record.removed_vertices;
  net.new_vertices.reserve(record.new_vertex_labels.size());
  for (uint32_t i = 0; i < record.new_vertex_labels.size(); ++i) {
    net.new_vertices.push_back(first_new_vertex_id + i);
  }
  return net;
}

WalWriter::WalWriter(int fd, std::string path, uint64_t size,
                     FsyncPolicy policy, uint64_t fsync_interval_ms)
    : fd_(fd),
      path_(std::move(path)),
      policy_(policy),
      fsync_interval_ms_(fsync_interval_ms),
      last_sync_ms_(SteadyMs()) {
  stats_.bytes = size;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<WalWriter> WalWriter::Create(const std::string& path,
                                             uint64_t start_version,
                                             FsyncPolicy policy,
                                             uint64_t fsync_interval_ms,
                                             std::string* error) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    Fail(error, "cannot create " + path);
    return nullptr;
  }
  const std::vector<uint8_t> header = EncodeHeader(start_version);
  if (!WriteAll(fd, header.data(), header.size()) || ::fsync(fd) != 0) {
    ::close(fd);
    std::remove(path.c_str());
    Fail(error, "cannot write header of " + path);
    return nullptr;
  }
  return std::unique_ptr<WalWriter>(new WalWriter(
      fd, path, header.size(), policy, fsync_interval_ms));
}

std::unique_ptr<WalWriter> WalWriter::OpenForAppend(
    const std::string& path, FsyncPolicy policy, uint64_t fsync_interval_ms,
    std::string* error) {
  const int fd = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd < 0) {
    Fail(error, "cannot open " + path + " for append");
    return nullptr;
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0 ||
      ::lseek(fd, 0, SEEK_END) != static_cast<off_t>(st.st_size)) {
    ::close(fd);
    Fail(error, "cannot position " + path + " for append");
    return nullptr;
  }
  return std::unique_ptr<WalWriter>(new WalWriter(
      fd, path, static_cast<uint64_t>(st.st_size), policy,
      fsync_interval_ms));
}

bool WalWriter::TruncateTo(uint64_t size, std::string* error) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0 ||
      ::lseek(fd_, static_cast<off_t>(size), SEEK_SET) < 0) {
    return Fail(error, "truncate of " + path_ + " failed");
  }
  stats_.bytes = size;
  return true;
}

bool WalWriter::Append(const WalRecord& record, std::string* error) {
  const std::vector<uint8_t> payload = EncodePayload(record);
  std::vector<uint8_t> buf;
  buf.reserve(kRecordHeaderBytes + payload.size());
  Put32(buf, static_cast<uint32_t>(payload.size()));
  Put32(buf, Crc32(payload.data(), payload.size()));
  buf.insert(buf.end(), payload.begin(), payload.end());

  const uint64_t record_start = stats_.bytes;
  // First poll: fail before a single byte lands.
  if (FAULT_POINT(wal_append)) {
    return Fail(error, "injected fault: wal_append");
  }
  const size_t split = buf.size() / 2;
  if (!WriteAll(fd_, buf.data(), split)) {
    TruncateTo(record_start, nullptr);
    return Fail(error, "append write failed");
  }
  // Second poll, mid-record: a simulated failure rolls the half-record
  // back; a crash schedule SIGKILLs here, leaving a genuine torn tail for
  // recovery to truncate.
  if (FAULT_POINT(wal_append)) {
    TruncateTo(record_start, nullptr);
    return Fail(error, "injected fault: wal_append (mid-record)");
  }
  if (!WriteAll(fd_, buf.data() + split, buf.size() - split)) {
    TruncateTo(record_start, nullptr);
    return Fail(error, "append write failed");
  }
  stats_.bytes += buf.size();

  bool want_sync = false;
  switch (policy_) {
    case FsyncPolicy::kEveryBatch:
      want_sync = true;
      break;
    case FsyncPolicy::kInterval:
      want_sync = SteadyMs() - last_sync_ms_ >=
                  static_cast<int64_t>(fsync_interval_ms_);
      break;
    case FsyncPolicy::kOff:
      break;
  }
  if (want_sync && !SyncNow(error)) {
    TruncateTo(record_start, nullptr);
    return false;  // error already set; file rolled back
  }
  last_append_offset_ = record_start;
  ++stats_.appended_records;
  return true;
}

bool WalWriter::SyncNow(std::string* error) {
  if (FAULT_POINT(wal_fsync)) {
    return Fail(error, "injected fault: wal_fsync");
  }
  if (::fsync(fd_) != 0) return Fail(error, "fsync failed");
  ++stats_.fsyncs;
  last_sync_ms_ = SteadyMs();
  return true;
}

bool WalWriter::Sync(std::string* error) { return SyncNow(error); }

bool WalWriter::RollbackLastAppend(std::string* error) {
  if (stats_.appended_records == 0 || last_append_offset_ >= stats_.bytes) {
    return Fail(error, "no append to roll back");
  }
  if (!TruncateTo(last_append_offset_, error)) return false;
  --stats_.appended_records;
  return true;
}

WalScanResult ScanWal(
    const std::string& path,
    const std::function<bool(WalRecord&&, std::string* error)>& on_record) {
  WalScanResult result;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    Fail(&result.error, "cannot open " + path);
    return result;
  }
  std::fseek(f, 0, SEEK_END);
  const uint64_t file_size = static_cast<uint64_t>(std::ftell(f));
  std::fseek(f, 0, SEEK_SET);

  auto finish = [&](bool ok) {
    std::fclose(f);
    result.ok = ok;
    if (ok) {
      result.torn_bytes = file_size - result.valid_bytes;
      result.error.clear();
    }
    return result;
  };
  auto mid_file = [&](const std::string& msg) {
    Fail(&result.error, msg);
    return finish(false);
  };

  // Header. A short or CRC-bad header *ending at EOF* is a torn creation
  // (crash while the file was being set up): valid prefix is empty and the
  // caller recreates the file. Bad header bytes with records after them
  // are mid-file corruption.
  uint8_t header[kHeaderBytes];
  if (std::fread(header, 1, kHeaderBytes, f) != kHeaderBytes) {
    return finish(true);  // torn header, valid_bytes = 0
  }
  uint32_t magic = 0, version = 0, crc = 0;
  std::memcpy(&magic, header, 4);
  std::memcpy(&version, header + 4, 4);
  std::memcpy(&result.start_version, header + 8, 8);
  std::memcpy(&crc, header + 16, 4);
  if (magic != kMagic || version != kWalFormatVersion ||
      crc != Crc32(header, kHeaderBytes - 4)) {
    if (file_size == kHeaderBytes) {
      result.start_version = 0;
      return finish(true);  // torn header at EOF
    }
    return mid_file(magic != kMagic ? "bad magic (not DAFW)"
                                    : "header CRC/version mismatch");
  }
  result.valid_bytes = kHeaderBytes;

  std::vector<uint8_t> payload;
  for (;;) {
    const uint64_t record_start = result.valid_bytes;
    uint8_t rec_header[kRecordHeaderBytes];
    const size_t got = std::fread(rec_header, 1, kRecordHeaderBytes, f);
    if (got == 0) return finish(true);  // clean end
    if (got < kRecordHeaderBytes) return finish(true);  // torn tail
    uint32_t len = 0, want_crc = 0;
    std::memcpy(&len, rec_header, 4);
    std::memcpy(&want_crc, rec_header + 4, 4);
    const uint64_t extent = record_start + kRecordHeaderBytes + len;
    if (len < kMinPayloadBytes || len > kMaxPayloadBytes) {
      // A garbage length that claims bytes past EOF is indistinguishable
      // from a torn header — truncate. One that fits inside the file is a
      // corrupted record in the middle of committed history — error.
      if (extent > file_size) return finish(true);
      return mid_file("implausible record length");
    }
    if (extent > file_size) return finish(true);  // torn tail
    payload.resize(len);
    if (std::fread(payload.data(), 1, len, f) != len) {
      return finish(true);  // torn tail (racing truncate)
    }
    if (Crc32(payload.data(), len) != want_crc) {
      if (extent == file_size) return finish(true);  // torn final record
      return mid_file("record CRC mismatch mid-file");
    }
    WalRecord record;
    if (!DecodePayload(payload.data(), len, &record)) {
      return mid_file("malformed record payload");
    }
    if (on_record != nullptr) {
      std::string cb_error;
      if (!on_record(std::move(record), &cb_error)) {
        Fail(&result.error, cb_error);
        return finish(false);
      }
    }
    ++result.records;
    result.valid_bytes = extent;
  }
}

bool RepairTornTail(const std::string& path, uint64_t valid_bytes,
                    std::string* error) {
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    return Fail(error, "cannot truncate torn tail of " + path);
  }
  return true;
}

}  // namespace daf::persist
