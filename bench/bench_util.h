#ifndef DAF_BENCH_BENCH_UTIL_H_
#define DAF_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "daf/engine.h"
#include "daf/parallel.h"
#include "graph/graph.h"
#include "obs/json.h"
#include "util/flags.h"
#include "workload/datasets.h"
#include "workload/querygen.h"

namespace daf::bench {

/// Flags shared by every figure/table harness. Defaults are sized so that
/// `for b in build/bench/*; do $b; done` completes on a laptop; raise
/// --scale / --queries / --timeout_ms to approach the paper's full protocol
/// (scale 1.0, 100 queries per set, k = 10^5, 10-minute timeout).
struct CommonFlags {
  double& scale;
  int64_t& queries;
  int64_t& k;
  int64_t& timeout_ms;
  int64_t& seed;
  /// JSON report destination: empty = BENCH_<figure>.json in the working
  /// directory, "-" = disable recording, anything else = explicit path.
  std::string& report;

  explicit CommonFlags(FlagSet& flags);
  ~CommonFlags();

  CommonFlags(const CommonFlags&) = delete;
  CommonFlags& operator=(const CommonFlags&) = delete;
};

/// The default shrink factor applied to each dataset so the harnesses run
/// in seconds instead of hours; overridden by --scale.
double DefaultScale(workload::DatasetId id);

/// Builds the dataset at the requested or default scale (logs to stderr).
Graph BuildDataset(workload::DatasetId id, const CommonFlags& flags);

/// Per-query outcome an algorithm adapter reports.
struct Outcome {
  double total_ms = 0;       // preprocessing + search
  double preprocess_ms = 0;
  uint64_t calls = 0;        // recursive calls (search-tree nodes)
  bool solved = false;       // finished within the time limit
  uint64_t aux_size = 0;     // Σ|C(u)| of the auxiliary structure
  uint64_t embeddings = 0;
};

/// An algorithm under benchmark: a display name and a per-query runner.
struct Algorithm {
  std::string name;
  std::function<Outcome(const Graph& query)> run;
};

/// Aggregate over one query set, following the paper's protocol: with n =
/// min #solved across the compared algorithms, averages are taken over each
/// algorithm's n least time-consuming solved queries; solved% is per
/// algorithm.
struct Summary {
  std::string algorithm;
  double avg_ms = 0;
  double avg_preprocess_ms = 0;
  double avg_calls = 0;
  double avg_aux = 0;
  double solved_pct = 0;
};

/// Runs every algorithm on every query and aggregates per the protocol.
///
/// Every call also appends its summaries — tagged with `label`, e.g.
/// "yeast/Q4S" — to an in-process report that is rewritten after each call
/// to the machine-readable result file `BENCH_<figure>.json` (see
/// BenchReportPath), so the perf trajectory of every harness run is
/// recorded without extra plumbing in the harnesses.
std::vector<Summary> EvaluateQuerySet(const std::vector<Graph>& queries,
                                      const std::vector<Algorithm>& algos,
                                      const std::string& label = "");

/// Destination of the JSON report: `--report` when a CommonFlags is live
/// and the flag was set ("-" disables recording and yields ""), otherwise
/// `BENCH_<figure>.json` where <figure> is the binary name without a
/// leading "bench_" prefix.
std::string BenchReportPath();

/// Serializes every row recorded so far (obs JSON writer schema:
/// {"figure": ..., "rows": [{"label", "algorithm", "avg_ms",
/// "avg_preprocess_ms", "avg_calls", "avg_aux", "solved_pct"}]}).
std::string BenchReportJson();

/// Drops all recorded rows (tests).
void ResetBenchReport();

/// Standard adapters. `base` carries the variant switches; limit/time are
/// taken from flags.
Algorithm MakeDafAlgorithm(const std::string& name, const Graph& data,
                           const MatchOptions& base,
                           const CommonFlags& flags);
Algorithm MakeBaselineAlgorithm(const std::string& name, const Graph& data,
                                const CommonFlags& flags);  // by name

/// A one-thread ParallelDafMatch run is DafMatch and reports no per-worker
/// split; fills in the trivial one (its thread made every call) so the
/// parallel tables treat every thread count alike.
void FillOneWorkerSplit(ParallelMatchResult* r);

/// Order statistics of a latency sample, in milliseconds.
struct LatencySummary {
  double p50 = 0, p95 = 0, p99 = 0, max = 0, mean = 0;
};

/// Summarizes `samples` (all zero when empty).
LatencySummary Summarize(std::vector<double> samples);

/// Writes `s` as {"p50_ms", "p95_ms", "p99_ms", "max_ms", "mean_ms"}.
void WriteLatency(obs::JsonWriter& w, const LatencySummary& s);

/// Table printing: column headers then one row per (query set, summary).
void PrintTableHeader(const std::string& title,
                      const std::vector<std::string>& columns);
void PrintSummaryRow(const std::string& query_set, const Summary& summary);

}  // namespace daf::bench

#endif  // DAF_BENCH_BENCH_UTIL_H_
