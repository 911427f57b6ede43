// graph_convert: converts a data graph between the two on-disk formats —
// literature text (t/v/e) and the checksummed "DAFS" snapshot format the
// durable match service uses (docs/PERSISTENCE.md).
//
//   $ ./examples/graph_convert --in yeast.txt --out yeast.dafs
//   $ ./examples/graph_convert --in yeast.dafs --out roundtrip.txt
//   $ ./examples/graph_convert --in yeast.dafs --info
//
// The input format is sniffed from the leading magic, so either format
// converts to the other; the output format comes from --to (text|dafs)
// or, when --to is unset, from the output extension (.dafs / anything
// else = text). Conversion is lossless for
// everything the text format can express: text -> dafs -> text reproduces
// the original graph exactly (vertex ids, labels, adjacency). A DAFS
// snapshot additionally carries the dynamic-graph version (--graph-version
// to stamp one when converting in) and per-section CRCs.
#include <cstdio>
#include <string>

#include "graph/io.h"
#include "persist/snapshot.h"
#include "util/flags.h"

namespace {

std::string FormatFromExtension(const std::string& path) {
  const size_t dot = path.rfind('.');
  const std::string ext = dot == std::string::npos ? "" : path.substr(dot);
  if (ext == ".dafs") return "dafs";
  return "text";
}

}  // namespace

int main(int argc, char** argv) {
  daf::FlagSet flags;
  std::string& in_path = flags.String("in", "", "input graph (any format)");
  std::string& out_path = flags.String("out", "", "output path");
  std::string& to =
      flags.String("to", "", "output format: text|dafs "
                             "(default: from the output extension)");
  int64_t& graph_version = flags.Int64(
      "graph-version", 0, "dynamic-graph version stamped into a DAFS output");
  bool& info = flags.Bool("info", false, "print input info and exit");
  if (!flags.Parse(argc, argv) || in_path.empty() ||
      (out_path.empty() && !info)) {
    if (!flags.error().empty()) {
      std::fprintf(stderr, "%s\n", flags.error().c_str());
    }
    flags.PrintUsage(argv[0]);
    return 1;
  }

  std::string error;
  if (info && daf::persist::SniffSnapshot(in_path)) {
    // Snapshot info is header-only — report it without loading the arrays.
    auto si = daf::persist::ReadSnapshotInfo(in_path, &error);
    if (!si.has_value()) {
      std::fprintf(stderr, "%s: %s\n", in_path.c_str(), error.c_str());
      return 1;
    }
    std::printf("%s: dafs snapshot graph_version=%llu vertices=%u "
                "edges=%llu edge_labels=%s\n",
                in_path.c_str(),
                static_cast<unsigned long long>(si->graph_version),
                si->num_vertices,
                static_cast<unsigned long long>(si->num_edges),
                si->has_edge_labels ? "yes" : "no");
    if (out_path.empty()) return 0;
  }

  std::optional<daf::Graph> g =
      daf::persist::LoadGraphAnyFormat(in_path, &error);
  if (!g.has_value()) {
    std::fprintf(stderr, "%s: %s\n", in_path.c_str(), error.c_str());
    return 1;
  }
  if (info) {
    std::printf("%s: vertices=%u edges=%llu\n", in_path.c_str(),
                g->NumVertices(),
                static_cast<unsigned long long>(g->NumEdges()));
    if (out_path.empty()) return 0;
  }

  const std::string format = to.empty() ? FormatFromExtension(out_path) : to;
  bool ok;
  if (format == "dafs") {
    ok = daf::persist::WriteSnapshot(
        *g, static_cast<uint64_t>(graph_version), out_path, &error);
  } else if (format == "text") {
    ok = daf::SaveGraph(*g, out_path, &error);
  } else {
    std::fprintf(stderr, "unknown format '%s' (text|dafs)\n",
                 format.c_str());
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr, "%s: %s\n", out_path.c_str(), error.c_str());
    return 1;
  }
  std::printf("wrote %s (%s, vertices=%u edges=%llu)\n", out_path.c_str(),
              format.c_str(), g->NumVertices(),
              static_cast<unsigned long long>(g->NumEdges()));
  return 0;
}
