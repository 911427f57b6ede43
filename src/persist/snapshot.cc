#include "persist/snapshot.h"

#include <unistd.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "graph/io.h"
#include "persist/crc32.h"
#include "util/fault_inject.h"

namespace daf::persist {
namespace {

// "DAFS" as a little-endian u32 ('D' first byte on disk).
constexpr uint32_t kMagic = 0x53464144u;

// Same hardening caps as the text loader (graph/io.cc): a corrupt
// header can never make the reader allocate beyond them.
constexpr uint64_t kMaxVertices = uint64_t{1} << 28;
constexpr uint64_t kMaxEdges = uint64_t{1} << 31;
constexpr uint32_t kMaxSections = 16;

enum SectionId : uint32_t {
  kSectionLabels = 1,
  kSectionOffsets = 2,
  kSectionAdjacency = 3,
  kSectionEdgeLabels = 4,
};

struct Header {
  uint32_t magic = 0;
  uint32_t format_version = 0;
  uint64_t graph_version = 0;
  uint32_t num_vertices = 0;
  uint32_t flags = 0;  // bit0: edge-label section present
  uint64_t num_edges = 0;
  uint32_t section_count = 0;
  uint32_t header_crc = 0;
};
static_assert(sizeof(Header) == 40, "header layout must be padding-free");

struct SectionEntry {
  uint32_t id = 0;
  uint32_t crc = 0;
  uint64_t offset = 0;
  uint64_t length = 0;  // bytes
};
static_assert(sizeof(SectionEntry) == 24, "entry layout must be padding-free");

constexpr uint32_t kFlagEdgeLabels = 1u;

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = "snapshot: " + msg;
  return false;
}

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool ReadExact(std::FILE* f, void* out, size_t bytes) {
  return std::fread(out, 1, bytes, f) == bytes;
}

/// Reads and fully validates header + section table. Returns false with a
/// typed error on any mismatch. `file_size` bounds every section extent.
bool ReadValidatedHeader(std::FILE* f, uint64_t file_size, Header* header,
                         std::vector<SectionEntry>* table,
                         std::string* error) {
  if (!ReadExact(f, header, sizeof(Header))) {
    return Fail(error, "file too short for header");
  }
  if (header->magic != kMagic) return Fail(error, "bad magic (not DAFS)");
  if (header->format_version != kSnapshotFormatVersion) {
    return Fail(error, "unsupported format version");
  }
  const uint32_t want_crc =
      Crc32(header, offsetof(Header, header_crc));
  if (header->header_crc != want_crc) {
    return Fail(error, "header CRC mismatch");
  }
  if (header->num_vertices > kMaxVertices) {
    return Fail(error, "vertex count exceeds loader cap");
  }
  if (header->num_edges > kMaxEdges) {
    return Fail(error, "edge count exceeds loader cap");
  }
  if (header->section_count == 0 || header->section_count > kMaxSections) {
    return Fail(error, "implausible section count");
  }
  table->resize(header->section_count);
  const size_t table_bytes = table->size() * sizeof(SectionEntry);
  if (!ReadExact(f, table->data(), table_bytes)) {
    return Fail(error, "file too short for section table");
  }
  uint32_t table_crc = 0;
  if (!ReadExact(f, &table_crc, sizeof(table_crc))) {
    return Fail(error, "file too short for section table CRC");
  }
  if (table_crc != Crc32(table->data(), table_bytes)) {
    return Fail(error, "section table CRC mismatch");
  }
  for (const SectionEntry& e : *table) {
    if (e.offset > file_size || e.length > file_size - e.offset) {
      return Fail(error, "section extent exceeds file size");
    }
  }
  return true;
}

const SectionEntry* FindSection(const std::vector<SectionEntry>& table,
                                uint32_t id, bool* duplicate) {
  const SectionEntry* found = nullptr;
  for (const SectionEntry& e : table) {
    if (e.id != id) continue;
    if (found != nullptr) {
      *duplicate = true;
      return nullptr;
    }
    found = &e;
  }
  return found;
}

/// Reads one section into `out` (element count derived from the entry),
/// verifying the expected byte length and the payload CRC.
template <typename T>
bool ReadSection(std::FILE* f, const std::vector<SectionEntry>& table,
                 uint32_t id, const char* name, uint64_t expected_elems,
                 std::vector<T>* out, std::string* error) {
  bool duplicate = false;
  const SectionEntry* e = FindSection(table, id, &duplicate);
  if (duplicate) {
    return Fail(error, std::string("duplicate ") + name + " section");
  }
  if (e == nullptr) {
    return Fail(error, std::string("missing ") + name + " section");
  }
  if (e->length != expected_elems * sizeof(T)) {
    return Fail(error, std::string(name) + " section has wrong length");
  }
  if (std::fseek(f, static_cast<long>(e->offset), SEEK_SET) != 0) {
    return Fail(error, std::string("seek to ") + name + " section failed");
  }
  out->resize(expected_elems);
  if (!ReadExact(f, out->data(), e->length)) {
    return Fail(error, std::string(name) + " section truncated");
  }
  if (Crc32(out->data(), e->length) != e->crc) {
    return Fail(error, std::string(name) + " section CRC mismatch");
  }
  return true;
}

uint64_t FileSize(std::FILE* f) {
  const long pos = std::ftell(f);
  std::fseek(f, 0, SEEK_END);
  const long end = std::ftell(f);
  std::fseek(f, pos, SEEK_SET);
  return end < 0 ? 0 : static_cast<uint64_t>(end);
}

}  // namespace

bool WriteSnapshot(const Graph& g, uint64_t graph_version,
                   const std::string& path, std::string* error) {
  Graph::CsrParts parts = g.ToCsrParts();
  const bool has_edge_labels = !parts.edge_labels.empty();

  struct Payload {
    uint32_t id;
    const void* data;
    uint64_t bytes;
  };
  std::vector<Payload> payloads = {
      {kSectionLabels, parts.labels.data(),
       parts.labels.size() * sizeof(Label)},
      {kSectionOffsets, parts.offsets.data(),
       parts.offsets.size() * sizeof(uint64_t)},
      {kSectionAdjacency, parts.adjacency.data(),
       parts.adjacency.size() * sizeof(VertexId)},
  };
  if (has_edge_labels) {
    payloads.push_back({kSectionEdgeLabels, parts.edge_labels.data(),
                        parts.edge_labels.size() * sizeof(Label)});
  }

  Header header;
  header.magic = kMagic;
  header.format_version = kSnapshotFormatVersion;
  header.graph_version = graph_version;
  header.num_vertices = g.NumVertices();
  header.flags = has_edge_labels ? kFlagEdgeLabels : 0;
  header.num_edges = g.NumEdges();
  header.section_count = static_cast<uint32_t>(payloads.size());
  header.header_crc = Crc32(&header, offsetof(Header, header_crc));

  std::vector<SectionEntry> table(payloads.size());
  uint64_t cursor = sizeof(Header) +
                    payloads.size() * sizeof(SectionEntry) +
                    sizeof(uint32_t);
  for (size_t i = 0; i < payloads.size(); ++i) {
    table[i].id = payloads[i].id;
    table[i].crc = Crc32(payloads[i].data,
                         static_cast<size_t>(payloads[i].bytes));
    table[i].offset = cursor;
    table[i].length = payloads[i].bytes;
    cursor += payloads[i].bytes;
  }
  const uint32_t table_crc =
      Crc32(table.data(), table.size() * sizeof(SectionEntry));

  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) return Fail(error, "cannot open " + path + " for write");
  auto abort_write = [&](const std::string& msg) {
    f.reset();
    std::remove(path.c_str());
    return Fail(error, msg);
  };
  if (std::fwrite(&header, 1, sizeof(header), f.get()) != sizeof(header) ||
      std::fwrite(table.data(), 1, table.size() * sizeof(SectionEntry),
                  f.get()) != table.size() * sizeof(SectionEntry) ||
      std::fwrite(&table_crc, 1, sizeof(table_crc), f.get()) !=
          sizeof(table_crc)) {
    return abort_write("short write (header)");
  }
  for (const Payload& p : payloads) {
    // One poll per section: a chaos schedule can fail the write — and the
    // crash oracle can SIGKILL the process — with the file half-written.
    if (FAULT_POINT(snapshot_write)) {
      return abort_write("injected fault: snapshot_write");
    }
    // An empty section (an empty graph) may have a null data pointer,
    // which fwrite must not be passed.
    if (p.bytes > 0 &&
        std::fwrite(p.data, 1, static_cast<size_t>(p.bytes), f.get()) !=
            p.bytes) {
      return abort_write("short write (section)");
    }
  }
  if (std::fflush(f.get()) != 0 || ::fsync(fileno(f.get())) != 0) {
    return abort_write("flush/fsync failed");
  }
  f.reset();
  if (error != nullptr) error->clear();
  return true;
}

std::optional<Graph> LoadSnapshot(const std::string& path,
                                  uint64_t* graph_version,
                                  std::string* error) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    Fail(error, "cannot open " + path);
    return std::nullopt;
  }
  const uint64_t file_size = FileSize(f.get());
  Header header;
  std::vector<SectionEntry> table;
  if (!ReadValidatedHeader(f.get(), file_size, &header, &table, error)) {
    return std::nullopt;
  }

  Graph::CsrParts parts;
  const uint64_t n = header.num_vertices;
  const uint64_t directed = 2 * header.num_edges;
  if (!ReadSection(f.get(), table, kSectionLabels, "label", n, &parts.labels,
                   error) ||
      !ReadSection(f.get(), table, kSectionOffsets, "offset", n + 1,
                   &parts.offsets, error) ||
      !ReadSection(f.get(), table, kSectionAdjacency, "adjacency", directed,
                   &parts.adjacency, error)) {
    return std::nullopt;
  }
  if ((header.flags & kFlagEdgeLabels) != 0) {
    if (!ReadSection(f.get(), table, kSectionEdgeLabels, "edge-label",
                     directed, &parts.edge_labels, error)) {
      return std::nullopt;
    }
  }
  f.reset();

  std::string parts_error;
  std::optional<Graph> g = Graph::FromCsrParts(std::move(parts),
                                               &parts_error);
  if (!g.has_value()) {
    Fail(error, "invalid CSR payload: " + parts_error);
    return std::nullopt;
  }
  if (graph_version != nullptr) *graph_version = header.graph_version;
  if (error != nullptr) error->clear();
  return g;
}

std::optional<SnapshotInfo> ReadSnapshotInfo(const std::string& path,
                                             std::string* error) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    Fail(error, "cannot open " + path);
    return std::nullopt;
  }
  Header header;
  std::vector<SectionEntry> table;
  if (!ReadValidatedHeader(f.get(), FileSize(f.get()), &header, &table,
                           error)) {
    return std::nullopt;
  }
  SnapshotInfo info;
  info.graph_version = header.graph_version;
  info.num_vertices = header.num_vertices;
  info.num_edges = header.num_edges;
  info.has_edge_labels = (header.flags & kFlagEdgeLabels) != 0;
  if (error != nullptr) error->clear();
  return info;
}

bool SniffSnapshot(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return false;
  uint32_t magic = 0;
  return ReadExact(f.get(), &magic, sizeof(magic)) && magic == kMagic;
}

std::optional<Graph> LoadGraphAnyFormat(const std::string& path,
                                        std::string* error) {
  char magic[4] = {};
  {
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (f == nullptr) {
      if (error != nullptr) *error = "cannot open " + path;
      return std::nullopt;
    }
    // A file shorter than 4 bytes can only be (malformed) text.
    (void)std::fread(magic, 1, sizeof(magic), f.get());
  }
  if (std::memcmp(magic, "DAFS", 4) == 0) {
    return LoadSnapshot(path, nullptr, error);
  }
  return LoadGraph(path, error);
}

}  // namespace daf::persist
