#include "graph/io.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

namespace daf {

namespace {

// Hard caps on declared sizes, checked BEFORE any reserve/assign sized by
// the header: a hostile or corrupt `t 4000000000 0` header must produce an
// error, not an OOM. VertexId is 32-bit so 2^28 vertices (1 GiB of labels)
// is already beyond every dataset this engine targets; edges get 2^31.
constexpr uint64_t kMaxDeclaredVertices = uint64_t{1} << 28;
constexpr uint64_t kMaxDeclaredEdges = uint64_t{1} << 31;

// Never trust a declared count for more than this much up-front reserve;
// larger inputs grow geometrically and pay O(log n) reallocations, but a
// lying header can no longer commit gigabytes before the first real line.
constexpr uint64_t kMaxTrustedReserve = uint64_t{1} << 20;

}  // namespace

std::optional<Graph> ParseGraphText(const std::string& text,
                                    std::string* error) {
  std::istringstream in(text);
  std::string line;
  uint64_t declared_vertices = 0;
  uint64_t declared_edges = 0;
  bool saw_header = false;
  std::vector<Label> labels;
  std::vector<Edge> edges;
  std::vector<Label> edge_labels;
  size_t line_no = 0;

  auto fail = [&](const std::string& message) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + message;
    }
    return std::nullopt;
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    char tag = 0;
    ls >> tag;
    if (tag == 't') {
      if (saw_header) return fail("duplicate header");
      if (!(ls >> declared_vertices >> declared_edges)) {
        return fail("malformed header");
      }
      // Negative counts wrap to huge values under iostream's unsigned
      // parse (strtoull semantics), so the caps also reject "-1".
      if (declared_vertices > kMaxDeclaredVertices) {
        return fail("declared vertex count exceeds limit");
      }
      if (declared_edges > kMaxDeclaredEdges) {
        return fail("declared edge count exceeds limit");
      }
      saw_header = true;
      labels.assign(declared_vertices, 0);
      edges.reserve(std::min(declared_edges, kMaxTrustedReserve));
    } else if (tag == 'v') {
      uint64_t id = 0;
      uint64_t label = 0;
      if (!(ls >> id >> label)) return fail("malformed vertex line");
      if (!saw_header) return fail("vertex line before 't' header");
      if (id >= declared_vertices) return fail("vertex id out of range");
      labels[id] = static_cast<Label>(label);
    } else if (tag == 'e') {
      uint64_t u = 0;
      uint64_t v = 0;
      if (!(ls >> u >> v)) return fail("malformed edge line");
      if (!saw_header) return fail("edge line before 't' header");
      if (u >= declared_vertices || v >= declared_vertices) {
        return fail("edge endpoint out of range");
      }
      uint64_t edge_label = 0;
      ls >> edge_label;  // optional trailing edge label; 0 when absent
      edges.emplace_back(static_cast<VertexId>(u), static_cast<VertexId>(v));
      edge_labels.push_back(static_cast<Label>(edge_label));
    } else {
      return fail(std::string("unknown line tag '") + tag + "'");
    }
  }
  if (!saw_header) {
    if (error != nullptr) *error = "missing 't' header line";
    return std::nullopt;
  }
  return Graph::FromLabeledEdges(std::move(labels), edges, edge_labels);
}

std::optional<Graph> LoadGraph(const std::string& path, std::string* error) {
  std::ifstream file(path);
  if (!file) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseGraphText(buffer.str(), error);
}

std::string GraphToText(const Graph& g) {
  std::ostringstream out;
  out << "t " << g.NumVertices() << " " << g.NumEdges() << "\n";
  for (uint32_t v = 0; v < g.NumVertices(); ++v) {
    out << "v " << v << " " << g.original_label(g.label(v)) << " "
        << g.degree(v) << "\n";
  }
  const bool edge_labels = g.HasNontrivialEdgeLabels();
  for (const auto& [e, label] : g.LabeledEdgeList()) {
    out << "e " << e.first << " " << e.second;
    if (edge_labels) out << " " << label;
    out << "\n";
  }
  return out.str();
}

bool SaveGraph(const Graph& g, const std::string& path, std::string* error) {
  std::ofstream file(path);
  if (!file) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  file << GraphToText(g);
  if (!file) {
    if (error != nullptr) *error = "write failed for " + path;
    return false;
  }
  return true;
}

}  // namespace daf
