// Command-line subgraph matcher: load a data graph and a query graph from
// files (the standard `t/v/e` text format, see graph/io.h) and enumerate
// embeddings with any algorithm in the library.
//
//   $ ./examples/match_cli --data g.txt --query q.txt
//         [--algo daf|da|cfl|turboiso|vf2|quicksi|graphql|spath|gaddi]
//         [--k 100000] [--timeout_ms 60000] [--threads 1] [--print 5]
//         [--max-memory BYTES] [--profile[=FILE]]
//
// --max-memory (daf/da only) caps the search's arena + candidate-space
// staging memory; an over-budget run stops cooperatively and reports its
// partial counts with a "(RESOURCE EXHAUSTED)" marker (exit status 0, but
// the result is not a completed enumeration). See docs/ROBUSTNESS.md.
//
// --profile (daf/da only) attaches an obs::SearchProfile to the run and
// emits it as JSON together with the MatchResult: bare --profile prints to
// stdout, --profile=FILE writes the document to FILE. The schema is
// documented in docs/OBSERVABILITY.md.
#include <cstdio>
#include <string>

#include "baselines/cfl_match.h"
#include "baselines/gaddi.h"
#include "baselines/graphql.h"
#include "baselines/quicksi.h"
#include "baselines/spath.h"
#include "baselines/turboiso.h"
#include "baselines/vf2.h"
#include "daf/parallel.h"
#include "graph/io.h"
#include "obs/json.h"
#include "persist/snapshot.h"
#include "util/flags.h"
#include "util/memory_budget.h"

namespace {

int64_t g_printed = 0;
int64_t g_print_limit = 0;

bool PrintEmbedding(std::span<const daf::VertexId> embedding) {
  if (g_printed < g_print_limit) {
    ++g_printed;
    std::printf("M%lld:", static_cast<long long>(g_printed));
    for (uint32_t u = 0; u < embedding.size(); ++u) {
      std::printf(" %u->%u", u, embedding[u]);
    }
    std::printf("\n");
  }
  return true;
}

// Writes the JSON document to stdout ("-") or to `destination`.
bool EmitProfile(const std::string& destination, const std::string& json) {
  if (destination == "-") {
    std::printf("%s\n", json.c_str());
    return true;
  }
  std::FILE* f = std::fopen(destination.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write profile to %s\n", destination.c_str());
    return false;
  }
  std::fprintf(f, "%s\n", json.c_str());
  std::fclose(f);
  std::fprintf(stderr, "profile written to %s\n", destination.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  daf::FlagSet flags;
  std::string& data_path = flags.String("data", "", "data graph file");
  std::string& query_path = flags.String("query", "", "query graph file");
  std::string& algo = flags.String("algo", "daf", "algorithm");
  int64_t& k = flags.Int64("k", 100000, "embeddings to find (0 = all)");
  int64_t& timeout_ms = flags.Int64("timeout_ms", 600000, "time limit");
  int64_t& threads = flags.Int64("threads", 1, "threads (daf only)");
  int64_t& print_limit =
      flags.Int64("print", 0, "print the first N embeddings");
  int64_t& max_memory = flags.Int64(
      "max-memory", 0, "search memory budget in bytes, daf/da (0 = none)");
  std::string& profile_out = flags.OptionalString(
      "profile", "", "-",
      "emit the JSON search profile (daf/da): bare = stdout, =FILE = file");
  if (!flags.Parse(argc, argv) || data_path.empty() || query_path.empty()) {
    if (!flags.error().empty()) {
      std::fprintf(stderr, "%s\n", flags.error().c_str());
    }
    flags.PrintUsage(argv[0]);
    return 1;
  }
  g_print_limit = print_limit;
  std::string error;
  // Either supported format: text or a DAFS snapshot (see
  // examples/graph_convert).
  auto data = daf::persist::LoadGraphAnyFormat(data_path, &error);
  if (!data) {
    std::fprintf(stderr, "cannot load data graph: %s\n", error.c_str());
    return 1;
  }
  auto query = daf::LoadGraph(query_path, &error);
  if (!query) {
    std::fprintf(stderr, "cannot load query graph: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "data: |V|=%u |E|=%llu; query: |V|=%u |E|=%llu\n",
               data->NumVertices(),
               static_cast<unsigned long long>(data->NumEdges()),
               query->NumVertices(),
               static_cast<unsigned long long>(query->NumEdges()));

  uint64_t embeddings = 0;
  uint64_t calls = 0;
  double ms = 0;
  bool timed_out = false;
  bool exhausted = false;
  bool ok = true;
  if (algo == "daf" || algo == "da") {
    daf::obs::SearchProfile profile;
    daf::MemoryBudget budget(
        max_memory > 0 ? static_cast<uint64_t>(max_memory) : 0);
    daf::MatchOptions options;
    options.limit = static_cast<uint64_t>(k);
    options.time_limit_ms = static_cast<uint64_t>(timeout_ms);
    options.use_failing_sets = algo == "daf";
    if (max_memory > 0) options.memory_budget = &budget;
    if (!profile_out.empty()) options.profile = &profile;
    if (g_print_limit > 0) options.callback = &PrintEmbedding;
    daf::MatchResult r;
    if (threads > 1) {
      r = daf::ParallelDafMatch(*query, *data, options,
                                static_cast<uint32_t>(threads));
    } else {
      r = daf::DafMatch(*query, *data, options);
    }
    ok = r.ok;
    if (!ok) std::fprintf(stderr, "%s\n", r.error.c_str());
    embeddings = r.embeddings;
    calls = r.recursive_calls;
    ms = r.preprocess_ms + r.search_ms;
    timed_out = r.timed_out;
    exhausted = r.resource_exhausted;
    if (ok && !profile_out.empty()) {
      std::string json = daf::obs::MatchResultToJson(r, &profile);
      if (!EmitProfile(profile_out, json)) return 1;
    }
  } else {
    using Fn = daf::baselines::MatcherResult (*)(
        const daf::Graph&, const daf::Graph&,
        const daf::baselines::MatcherOptions&);
    Fn fn = nullptr;
    if (algo == "cfl") fn = &daf::baselines::CflMatch;
    if (algo == "turboiso") fn = &daf::baselines::TurboIsoMatch;
    if (algo == "vf2") fn = &daf::baselines::Vf2Match;
    if (algo == "quicksi") fn = &daf::baselines::QuickSiMatch;
    if (algo == "graphql") fn = &daf::baselines::GraphQlMatch;
    if (algo == "spath") fn = &daf::baselines::SPathMatch;
    if (algo == "gaddi") fn = &daf::baselines::GaddiMatch;
    if (fn == nullptr) {
      std::fprintf(stderr, "unknown --algo %s\n", algo.c_str());
      return 1;
    }
    if (!profile_out.empty()) {
      std::fprintf(stderr,
                   "--profile is only supported for --algo daf|da; ignored\n");
    }
    daf::baselines::MatcherOptions options;
    options.limit = static_cast<uint64_t>(k);
    options.time_limit_ms = static_cast<uint64_t>(timeout_ms);
    if (g_print_limit > 0) options.callback = &PrintEmbedding;
    daf::baselines::MatcherResult r = fn(*query, *data, options);
    ok = r.ok;
    embeddings = r.embeddings;
    calls = r.recursive_calls;
    ms = r.preprocess_ms + r.search_ms;
    timed_out = r.timed_out;
  }
  if (!ok) return 1;
  std::printf("%llu embeddings, %llu recursive calls, %.2f ms%s%s\n",
              static_cast<unsigned long long>(embeddings),
              static_cast<unsigned long long>(calls), ms,
              timed_out ? " (TIMED OUT)" : "",
              exhausted ? " (RESOURCE EXHAUSTED)" : "");
  return 0;
}
