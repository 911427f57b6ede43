#ifndef DAF_GRAPH_IO_H_
#define DAF_GRAPH_IO_H_

#include <optional>
#include <string>

#include "graph/graph.h"

namespace daf {

/// Parses a graph from the text format used by the subgraph-matching
/// literature (and by the datasets the paper evaluates on):
///
///   t <num_vertices> <num_edges>
///   v <id> <label> [<degree>]     (one line per vertex)
///   e <u> <v> [<edge label>]      (one line per edge; edge labels ignored)
///
/// Lines starting with '#' or '%' are comments. Returns std::nullopt and
/// fills `*error` on malformed input.
std::optional<Graph> ParseGraphText(const std::string& text,
                                    std::string* error);

/// Loads a graph from a file in the text format above. Large graphs load
/// several times faster from a DAFS snapshot (persist/snapshot.h; see
/// BM_LoadGraphText vs BM_LoadGraphSnapshot in bench_micro).
std::optional<Graph> LoadGraph(const std::string& path, std::string* error);

/// Serializes a graph to the text format above.
std::string GraphToText(const Graph& g);

/// Writes a graph to a file; returns false (and fills `*error`) on failure.
bool SaveGraph(const Graph& g, const std::string& path, std::string* error);

}  // namespace daf

#endif  // DAF_GRAPH_IO_H_
