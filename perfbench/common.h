// Shared pieces of the end-to-end benchmark: run arguments, the metric
// catalogue, the outcome record every workload fills, statistics helpers,
// and the input generators more than one workload uses.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "daf/match_context.h"
#include "dyn/update_batch.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
inline double Ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// The steady-clock time `seconds` from now.
inline Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for durable-store files (inside the checkout).
  std::string workdir;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, reported by every workload (untraced runs).
const std::vector<MetricSpec>& EndToEndMetrics();
/// Every per-layer metric, reported by every workload (traced runs); a
/// layer the workload never runs reports 0.
const std::vector<MetricSpec>& PerLayerMetrics();

/// What one run measured and checked.
struct Outcome {
  bool correct = true;
  bool mismatched = false;  // an oracle disagreed
  bool overloaded = false;  // the overload guard rejected the measurement
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Workload constants and details, emitted as the reproducibility record
  /// (values are JSON fragments).
  std::vector<std::pair<std::string, std::string>> record;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Note(const std::string& key, double value);
  void Note(const std::string& key, const std::string& value);
  void NoteJson(const std::string& key, std::string json);
  /// Records a workload-specific end-to-end figure under the name the
  /// rationale note uses (e.g. `read_p99_ms`), with its unit.
  void Report(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect and says why on stderr.
  void Mismatch(const std::string& what);
  /// Marks the run invalid because the load generator could not keep up.
  void Overload(const std::string& what);
};

// --- Statistics.

/// Linear-interpolated percentile (q in [0, 1]) of `samples`; 0 if empty.
double Percentile(std::vector<double> samples, double q);
double Mean(const std::vector<double>& samples);
/// {"p50": ..., ..., "p99": ...} of `samples`, for the reproducibility
/// record.
std::string QuantilesJson(const std::vector<double>& samples);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// Runs `setup` `repeats` times and returns the median wall time in s;
/// `teardown` (untimed, may be empty) runs between repetitions.
double MedianSetupSeconds(int repeats, const std::function<void()>& setup,
                          const std::function<void()>& teardown = {});

/// Checks that each reported mapping is an embedding of `query` in `data`
/// (labels preserved, every query edge present, injective) and that no
/// mapping repeats.
class EmbeddingChecker {
 public:
  EmbeddingChecker(const daf::Graph& query, const daf::Graph& data);
  void Check(std::span<const daf::VertexId> mapping);
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  const daf::Graph& query_;
  const daf::Graph& data_;
  std::vector<daf::Edge> query_edges_;
  std::unordered_set<uint64_t> seen_;
  std::string error_;
};

/// Order-independent fingerprint term of one embedding (sum these mod 2^64
/// to compare multisets of embeddings).
uint64_t EmbeddingHash(std::span<const daf::VertexId> mapping);

/// Per-layer times and exact counts of one traced pipeline run.
struct LayerSample {
  double dag_ms = 0, cs_ms = 0, weights_ms = 0, backtrack_ms = 0;
  double total_ms = 0;
  uint64_t embeddings = 0;
  uint64_t candidates = 0, cs_edges = 0;
  daf::obs::BacktrackProfile profile;

  double BuildMs() const { return dag_ms + cs_ms + weights_ms; }
  /// Adds the exact counts of `other` (candidates, CS edges, profile).
  void AddCounts(const LayerSample& other);
};

/// Sets the exact CS, backtracking and intersection-kernel counts.
void SetSearchCounts(const LayerSample& totals, Outcome* out);

/// Sets trace.overhead_ms and trace.overhead_pct: traced minus untraced p50
/// end-to-end time of the same operations.
void SetTraceOverhead(const std::vector<double>& traced_ms,
                      const std::vector<double>& untraced_ms, Outcome* out);

/// DafMatch's pipeline (BuildDAG, CS build, weights, backtracking with the
/// given embedding limit), called layer by layer through the public API on
/// the warm `context` so that each layer is timed from outside. With
/// `profile` the backtracker also fills the sample's profile counts, which
/// slows it down; timed samples leave it off, as DafMatch does by default.
LayerSample TracedMatch(const daf::Graph& query, const daf::Graph& data,
                        uint64_t limit, bool profile,
                        daf::MatchContext* context);

// --- Inputs shared by the serving workloads.

/// Constants of the R-MAT data graph the serving workloads use. The graph
/// plays a fixed dataset, as the Yeast and HPRD stand-ins do for `engine`:
/// it comes from one fixed seed, and the run's seed draws everything else
/// (patterns, job stream, update batches, probes).
struct RmatSpec {
  uint32_t scale = 15;          // 2^15 vertices
  uint64_t edges = 100000;      // before connecting components
  uint32_t labels = 24;
  double label_zipf = 0.7;
  uint64_t seed = 1;
};

daf::Graph MakeRmatGraph(const RmatSpec& spec);

/// Random vertex relabeling of `q` drawn from `rng`.
daf::Graph Relabel(const daf::Graph& q, daf::Rng& rng);

/// Connected random-walk patterns with `min_size`..`max_size` vertices
/// (sizes cycle), pairwise non-isomorphic and non-isomorphic to anything in
/// `exclude_keys`; the keys of the returned patterns are added to it.
std::vector<daf::Graph> DistinctPatterns(
    const daf::Graph& data, uint32_t count, uint32_t min_size,
    uint32_t max_size, daf::Rng& rng,
    std::vector<std::vector<uint64_t>>* exclude_keys);

/// `count` update batches of `ops` operations against `g`: batch j removes
/// a disjoint slice of the initial edges (half the ops) and inserts random
/// new pairs, so the stream is fixed by `rng` whatever the timing.
std::vector<daf::dyn::UpdateBatch> MakeUpdateBatches(const daf::Graph& g,
                                                     size_t count,
                                                     uint32_t ops,
                                                     daf::Rng& rng);

/// Zipf popularity weights 1/(i+1)^s.
std::vector<double> ZipfWeights(size_t n, double s);

/// Writes the reproducibility record and the result line to stdout.
void PrintResult(const Args& args, const Outcome& outcome);

/// Workload entry points.
Outcome RunEngine(const Args& args);
Outcome RunServe(const Args& args, bool with_writes);
Outcome RunRestart(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
