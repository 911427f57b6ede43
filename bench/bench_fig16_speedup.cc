// Regenerates Figure 16 (Appendix A.4): speedup of the parallelized DAF
// when finding ALL embeddings (k = infinity) of size-6 queries on Human, so
// the total work is identical for every thread count, comparing the paper's
// root-cursor partitioning against the work-stealing engine. A synthetic
// *skewed* workload is added on top: a data graph with two root candidates
// whose subtrees differ by orders of magnitude — the shape where
// partitioning only the root's candidates (Appendix A.4) plateaus, because
// one worker inherits essentially the whole search tree. Work stealing
// splits that dominant subtree's candidate ranges on demand instead.
//
// On a single-core host the wall-clock speedup stays ~1; the per-thread
// work split and the load-imbalance metric max/mean per-thread recursive
// calls (1.00 = perfect balance, `threads` = fully serialized) show the
// load balance that produces the paper's 12.7x at 16 threads on a 16-core
// machine. See EXPERIMENTS.md, substitution 4.
//
// `--smoke` shrinks everything to a token run (CI: does the harness still
// execute end to end?). Results are also recorded to BENCH_fig16.json
// (override with --report) with one row per (workload, strategy, threads).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "daf/parallel.h"
#include "obs/json.h"

namespace daf::bench {
namespace {

struct Fig16Row {
  std::string label;
  std::string strategy;
  uint32_t threads = 0;
  double avg_ms = 0;
  double speedup = 0;
  double rec_calls = 0;
  double call_imbalance = 0;
  uint64_t steals = 0;
  uint64_t donations = 0;
};

const char* StrategyName(ParallelStrategy s) {
  return s == ParallelStrategy::kWorkStealing ? "steal" : "cursor";
}

/// The skew trap: one label-1 anchor owns a label-0 clique of `clique`
/// vertices (every ordered vertex triple is an embedding of the query's
/// triangle), the other owns a single label-0 triangle. The query root (two
/// candidates, the anchors) makes root partitioning hand one worker
/// ~clique^3 units of work and another ~6.
Graph MakeSkewedData(uint32_t clique) {
  std::vector<Label> labels;
  std::vector<Edge> edges;
  const VertexId anchor_a = 0;
  labels.push_back(1);
  for (uint32_t i = 0; i < clique; ++i) {
    VertexId v = static_cast<VertexId>(labels.size());
    labels.push_back(0);
    edges.emplace_back(anchor_a, v);
    for (VertexId w = anchor_a + 1; w < v; ++w) edges.emplace_back(w, v);
  }
  const VertexId anchor_b = static_cast<VertexId>(labels.size());
  labels.push_back(1);
  VertexId t0 = anchor_b + 1;
  for (int i = 0; i < 3; ++i) labels.push_back(0);
  for (int i = 0; i < 3; ++i) {
    edges.emplace_back(anchor_b, t0 + i);
    edges.emplace_back(t0 + i, t0 + (i + 1) % 3);
  }
  return Graph::FromEdges(std::move(labels), edges);
}

/// A label-1 pendant on a label-0 triangle.
Graph MakeSkewedQuery() {
  return Graph::FromEdges({1, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}, {3, 1}});
}

void WriteReport(const std::vector<Fig16Row>& rows) {
  const std::string path = BenchReportPath();
  if (path.empty()) return;
  obs::JsonWriter w(2);
  w.BeginObject();
  w.Key("figure").String("fig16_speedup");
  w.Key("rows").BeginArray();
  for (const Fig16Row& r : rows) {
    w.BeginObject();
    w.Key("label").String(r.label);
    w.Key("strategy").String(r.strategy);
    w.Key("threads").Uint(r.threads);
    w.Key("avg_ms").Double(r.avg_ms);
    w.Key("speedup").Double(r.speedup);
    w.Key("rec_calls").Double(r.rec_calls);
    w.Key("call_imbalance").Double(r.call_imbalance);
    w.Key("steals").Uint(r.steals);
    w.Key("donations").Uint(r.donations);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;  // best effort, like bench_util's report
  std::string json = w.str();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
}

void PrintRow(const Fig16Row& r, uint64_t min_calls, uint64_t max_calls) {
  std::printf("%-16s%-7s%-9u%12.2f%12.2f%14.0f%11.2f%11llu/%-10llu\n",
              r.label.c_str(), r.strategy.c_str(), r.threads, r.avg_ms,
              r.speedup, r.rec_calls, r.call_imbalance,
              static_cast<unsigned long long>(min_calls),
              static_cast<unsigned long long>(max_calls));
}

int Run(int argc, char** argv) {
  FlagSet flags;
  CommonFlags common(flags);
  bool& smoke = flags.Bool("smoke", false,
                           "token run: tiny workloads, fewer thread counts");
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    flags.PrintUsage(argv[0]);
    return 1;
  }
  const std::vector<uint32_t> thread_counts =
      smoke ? std::vector<uint32_t>{1, 2, 4}
            : std::vector<uint32_t>{1, 2, 4, 8, 16};
  const uint32_t num_queries =
      smoke ? 2u : static_cast<uint32_t>(common.queries);
  std::vector<Fig16Row> rows;

  Graph data = BuildDataset(workload::DatasetId::kHuman, common);
  Rng rng(static_cast<uint64_t>(common.seed) * 99707);
  std::printf(
      "== Figure 16: parallel speedup, all embeddings, |V(q)|=6 (Human) "
      "==\n");
  std::printf("%-16s%-7s%-9s%12s%12s%14s%11s%22s\n", "Set", "strat",
              "threads", "avg_ms", "speedup", "rec_calls", "max/mean",
              "thread_call_balance");
  for (bool sparse : {true, false}) {
    workload::QuerySet set =
        workload::MakeQuerySet(data, 6, sparse, num_queries, rng);
    if (set.queries.empty()) continue;
    for (ParallelStrategy strategy :
         {ParallelStrategy::kRootCursor, ParallelStrategy::kWorkStealing}) {
      double single_thread_ms = 0;
      for (uint32_t threads : thread_counts) {
        double total_ms = 0;
        uint64_t total_calls = 0;
        double imbalance_sum = 0;
        uint64_t steals = 0;
        uint64_t donations = 0;
        uint64_t max_thread_calls = 0;
        uint64_t min_thread_calls = ~0ull;
        int solved = 0;
        for (const Graph& q : set.queries) {
          MatchOptions opts;
          opts.limit = 0;  // all embeddings: equal work at any thread count
          opts.time_limit_ms = static_cast<uint64_t>(common.timeout_ms) * 5;
          opts.parallel_strategy = strategy;
          ParallelMatchResult r = ParallelDafMatch(q, data, opts, threads);
          if (!r.ok || r.timed_out) continue;
          FillOneWorkerSplit(&r);
          ++solved;
          total_ms += r.preprocess_ms + r.search_ms;
          total_calls += r.recursive_calls;
          imbalance_sum += r.call_imbalance;
          steals += r.steals;
          donations += r.donations;
          for (uint64_t c : r.per_thread_calls) {
            max_thread_calls = std::max(max_thread_calls, c);
            min_thread_calls = std::min(min_thread_calls, c);
          }
        }
        if (solved == 0) continue;
        Fig16Row row;
        row.label = "human/" + set.Name();
        row.strategy = StrategyName(strategy);
        row.threads = threads;
        row.avg_ms = total_ms / solved;
        if (threads == 1) single_thread_ms = row.avg_ms;
        row.speedup = row.avg_ms > 0 ? single_thread_ms / row.avg_ms : 0.0;
        row.rec_calls = static_cast<double>(total_calls) / solved;
        row.call_imbalance = imbalance_sum / solved;
        row.steals = steals;
        row.donations = donations;
        PrintRow(row, min_thread_calls, max_thread_calls);
        rows.push_back(std::move(row));
      }
    }
  }

  // The skewed workload: two root candidates, one dominant subtree.
  const uint32_t clique = smoke ? 12u : 150u;
  Graph skew_data = MakeSkewedData(clique);
  Graph skew_query = MakeSkewedQuery();
  std::printf(
      "\n== Skewed roots: %u-clique vs triangle (root partitioning "
      "plateaus) ==\n",
      clique);
  std::printf("%-16s%-7s%-9s%12s%12s%14s%11s%22s\n", "Set", "strat",
              "threads", "avg_ms", "speedup", "rec_calls", "max/mean",
              "thread_call_balance");
  for (ParallelStrategy strategy :
       {ParallelStrategy::kRootCursor, ParallelStrategy::kWorkStealing}) {
    double single_thread_ms = 0;
    for (uint32_t threads : thread_counts) {
      MatchOptions opts;
      opts.limit = 0;
      opts.time_limit_ms = static_cast<uint64_t>(common.timeout_ms) * 5;
      opts.parallel_strategy = strategy;
      ParallelMatchResult r =
          ParallelDafMatch(skew_query, skew_data, opts, threads);
      if (!r.ok || r.timed_out) continue;
      FillOneWorkerSplit(&r);
      uint64_t max_thread_calls = 0;
      uint64_t min_thread_calls = ~0ull;
      for (uint64_t c : r.per_thread_calls) {
        max_thread_calls = std::max(max_thread_calls, c);
        min_thread_calls = std::min(min_thread_calls, c);
      }
      Fig16Row row;
      row.label = "skew/" + std::to_string(clique) + "clique";
      row.strategy = StrategyName(strategy);
      row.threads = threads;
      row.avg_ms = r.preprocess_ms + r.search_ms;
      if (threads == 1) single_thread_ms = row.avg_ms;
      row.speedup = row.avg_ms > 0 ? single_thread_ms / row.avg_ms : 0.0;
      row.rec_calls = static_cast<double>(r.recursive_calls);
      row.call_imbalance = r.call_imbalance;
      row.steals = r.steals;
      row.donations = r.donations;
      PrintRow(row, min_thread_calls, max_thread_calls);
      rows.push_back(std::move(row));
    }
  }

  WriteReport(rows);
  return 0;
}

}  // namespace
}  // namespace daf::bench

int main(int argc, char** argv) { return daf::bench::Run(argc, argv); }
