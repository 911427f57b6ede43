#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>

#include "daf/backtrack.h"
#include "daf/candidate_space.h"
#include "daf/query_dag.h"
#include "daf/weights.h"
#include "graph/canonical.h"
#include "graph/generators.h"
#include "obs/json.h"
#include "util/intersect.h"
#include "workload/querygen.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"ops_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
  };
  return metrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"query_dag.ms", "ms"},
      {"candidate_space.ms", "ms"},
      {"candidate_space.candidates", "count"},
      {"candidate_space.edges", "count"},
      {"weights.ms", "ms"},
      {"backtrack.ms", "ms"},
      {"backtrack.calls", "count"},
      {"backtrack.fs_skips", "count"},
      {"intersect.merge", "count"},
      {"intersect.gallop", "count"},
      {"intersect.simd", "count"},
      {"intersect.bitmap", "count"},
      {"admission_queue.wait_p50_ms", "ms"},
      {"admission_queue.wait_p99_ms", "ms"},
      {"admission_queue.depth_max", "count"},
      {"match_service.run_p50_ms", "ms"},
      {"match_service.run_p99_ms", "ms"},
      {"match_service.gap_p50_ms", "ms"},
      {"match_service.gap_p99_ms", "ms"},
      {"query_cache.lookups", "count"},
      {"query_cache.hit_rate", "ratio"},
      {"query_cache.hit_run_p50_ms", "ms"},
      {"query_cache.miss_run_p50_ms", "ms"},
      {"canonical.p50_us", "us"},
      {"steal.idle_ms", "ms"},
      {"steal.imbalance", "ratio"},
      {"batch.p50_ms", "ms"},
      {"batch.p99_ms", "ms"},
      {"delta_graph.apply_ms", "ms"},
      {"delta_graph.materialize_ms", "ms"},
      {"dynamic_cs.maintain_ms", "ms"},
      {"dynamic_cs.rebuilds", "count"},
      {"delta_enumerate.ms", "ms"},
      {"delta_enumerate.embeddings", "count"},
      {"subscription.classes", "count"},
      {"subscription.resyncs", "count"},
      {"wal.append_ms", "ms"},
      {"wal.bytes_per_batch", "bytes"},
      {"store.open_ms", "ms"},
      {"store.replayed_records", "count"},
      {"match_service.ctor_ms", "ms"},
      {"match_service.first_job_ms", "ms"},
      {"bench.lag_p99_ms", "ms"},
      {"leftover.query_ms", "ms"},
      {"leftover.job_ms", "ms"},
      {"leftover.batch_ms", "ms"},
      {"leftover.restart_ms", "ms"},
      {"trace.overhead_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return metrics;
}

namespace {

// Stops a traced search that would run away; no benchmark query gets near.
constexpr uint64_t kTracedSafetyLimitMs = 10000;

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  daf::obs::JsonWriter w(0);
  w.String(s);
  return w.str();
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

const char* SimdTier() {
  switch (daf::DetectedSimdLevel()) {
    case daf::SimdLevel::kAvx2:
      return "avx2";
    case daf::SimdLevel::kSse:
      return "sse";
    case daf::SimdLevel::kNone:
      break;
  }
  return "none";
}

}  // namespace

void Outcome::Note(const std::string& key, double value) {
  record.emplace_back(key, JsonNumber(value));
}

void Outcome::Note(const std::string& key, const std::string& value) {
  record.emplace_back(key, JsonString(value));
}

void Outcome::NoteJson(const std::string& key, std::string json) {
  record.emplace_back(key, std::move(json));
}

void Outcome::Report(const std::string& name, double value,
                     const std::string& unit) {
  record.emplace_back(name, "{\"value\":" + JsonNumber(value) +
                                ",\"unit\":" + JsonString(unit) + "}");
}

void Outcome::Mismatch(const std::string& what) {
  correct = false;
  mismatched = true;
  std::fprintf(stderr, "perfbench: ORACLE MISMATCH: %s\n", what.c_str());
}

void Outcome::Overload(const std::string& what) {
  correct = false;
  overloaded = true;
  std::fprintf(stderr, "perfbench: OVERLOAD (measurement invalid): %s\n",
               what.c_str());
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

std::string QuantilesJson(const std::vector<double>& samples) {
  std::string json = "{";
  for (int q : {50, 75, 90, 95, 98, 99}) {
    if (json.size() > 1) json += ',';
    json += "\"p" + std::to_string(q) + "\":" +
            JsonNumber(Percentile(samples, q / 100.0));
  }
  return json + "}";
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double MedianSetupSeconds(int repeats, const std::function<void()>& setup,
                          const std::function<void()>& teardown) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    if (i > 0 && teardown) teardown();
    const Clock::time_point start = Clock::now();
    setup();
    seconds.push_back(Ms(start, Clock::now()) / 1000.0);
  }
  return Percentile(seconds, 0.5);
}

EmbeddingChecker::EmbeddingChecker(const daf::Graph& query,
                                   const daf::Graph& data)
    : query_(query), data_(data), query_edges_(query.EdgeList()) {}

void EmbeddingChecker::Check(std::span<const daf::VertexId> m) {
  if (!error_.empty()) return;
  if (m.size() != query_.NumVertices()) {
    error_ = "embedding has the wrong arity";
    return;
  }
  for (daf::VertexId u = 0; u < m.size(); ++u) {
    if (m[u] >= data_.NumVertices() ||
        query_.original_label(query_.label(u)) !=
            data_.original_label(data_.label(m[u]))) {
      error_ = "embedding maps a vertex onto a wrong label";
      return;
    }
  }
  for (const daf::Edge& e : query_edges_) {
    if (!data_.HasEdge(m[e.first], m[e.second])) {
      error_ = "embedding misses a query edge";
      return;
    }
  }
  std::vector<daf::VertexId> sorted(m.begin(), m.end());
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    error_ = "embedding is not injective";
    return;
  }
  if (!seen_.insert(EmbeddingHash(m)).second) {
    error_ = "embedding reported twice";
  }
}

uint64_t EmbeddingHash(std::span<const daf::VertexId> mapping) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (daf::VertexId v : mapping) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 31;
  }
  return h;
}

LayerSample TracedMatch(const daf::Graph& query, const daf::Graph& data,
                        uint64_t limit, bool profile,
                        daf::MatchContext* context) {
  LayerSample s;
  const Clock::time_point t0 = Clock::now();
  context->arena().Reset();
  daf::QueryDag dag = daf::QueryDag::Build(query, data);
  const Clock::time_point t1 = Clock::now();
  daf::CandidateSpace::Options cs_options;
  daf::CandidateSpace cs =
      daf::CandidateSpace::Build(query, dag, data, cs_options,
                                 &context->arena(), &context->cs_scratch());
  const Clock::time_point t2 = Clock::now();
  s.dag_ms = Ms(t0, t1);
  s.cs_ms = Ms(t1, t2);
  s.candidates = cs.TotalCandidates();
  s.cs_edges = cs.TotalEdges();
  bool empty = false;
  for (uint32_t u = 0; u < query.NumVertices(); ++u) {
    empty = empty || cs.NumCandidates(u) == 0;
  }
  if (!empty) {
    daf::WeightArray weights =
        daf::WeightArray::Compute(dag, cs, &context->arena());
    const Clock::time_point t3 = Clock::now();
    daf::Backtracker backtracker(query, dag, cs, &weights,
                                 data.NumVertices(),
                                 &context->backtrack_scratch(0));
    daf::Deadline deadline(kTracedSafetyLimitMs);
    daf::BacktrackOptions bt;
    bt.limit = limit;
    bt.deadline = &deadline;
    bt.profile = profile ? &s.profile : nullptr;
    daf::BacktrackStats stats = backtracker.Run(bt);
    const Clock::time_point t4 = Clock::now();
    s.weights_ms = Ms(t2, t3);
    s.backtrack_ms = Ms(t3, t4);
    s.embeddings = stats.embeddings;
  }
  s.total_ms = Ms(t0, Clock::now());
  return s;
}

void LayerSample::AddCounts(const LayerSample& other) {
  candidates += other.candidates;
  cs_edges += other.cs_edges;
  profile.MergeFrom(other.profile);
}

void SetSearchCounts(const LayerSample& totals, Outcome* out) {
  const daf::obs::BacktrackProfile& p = totals.profile;
  out->Set("candidate_space.candidates", static_cast<double>(totals.candidates));
  out->Set("candidate_space.edges", static_cast<double>(totals.cs_edges));
  out->Set("backtrack.calls", static_cast<double>(p.HistogramTotal()));
  out->Set("backtrack.fs_skips", static_cast<double>(p.failing_set_skips));
  out->Set("intersect.merge", static_cast<double>(p.intersect_merge));
  out->Set("intersect.gallop", static_cast<double>(p.intersect_gallop));
  out->Set("intersect.simd", static_cast<double>(p.intersect_simd));
  out->Set("intersect.bitmap", static_cast<double>(p.intersect_bitmap));
}

void SetTraceOverhead(const std::vector<double>& traced_ms,
                      const std::vector<double>& untraced_ms, Outcome* out) {
  const double traced = Percentile(traced_ms, 0.5);
  const double untraced = Percentile(untraced_ms, 0.5);
  out->Set("trace.overhead_ms", traced - untraced);
  out->Set("trace.overhead_pct",
           untraced > 0 ? 100.0 * (traced / untraced - 1.0) : 0.0);
}

daf::Graph MakeRmatGraph(const RmatSpec& spec) {
  daf::Rng rng(spec.seed);
  const uint32_t n = 1u << spec.scale;
  std::vector<daf::Edge> edges =
      daf::RmatEdges(spec.scale, spec.edges, 0.57, 0.19, 0.19, rng);
  daf::ConnectComponents(n, &edges, rng);
  return daf::Graph::FromEdges(
      daf::ZipfLabels(n, spec.labels, spec.label_zipf, rng), edges);
}

daf::Graph Relabel(const daf::Graph& q, daf::Rng& rng) {
  std::vector<daf::VertexId> perm(q.NumVertices());
  std::iota(perm.begin(), perm.end(), 0u);
  rng.Shuffle(perm);
  return daf::PermuteVertices(q, perm);
}

std::vector<daf::Graph> DistinctPatterns(
    const daf::Graph& data, uint32_t count, uint32_t min_size,
    uint32_t max_size, daf::Rng& rng,
    std::vector<std::vector<uint64_t>>* exclude_keys) {
  std::vector<daf::Graph> patterns;
  const uint32_t span = max_size - min_size + 1;
  for (uint32_t attempt = 0; patterns.size() < count && attempt < 50 * count;
       ++attempt) {
    const uint32_t size = min_size + static_cast<uint32_t>(patterns.size()) %
                                         span;
    daf::workload::QuerySet set =
        daf::workload::MakeQuerySet(data, size, /*sparse=*/true, 1, rng);
    if (set.queries.empty()) continue;
    std::vector<uint64_t> key = daf::CanonicalizeQuery(set.queries[0]).key;
    if (std::find(exclude_keys->begin(), exclude_keys->end(), key) !=
        exclude_keys->end()) {
      continue;
    }
    exclude_keys->push_back(std::move(key));
    patterns.push_back(std::move(set.queries[0]));
  }
  return patterns;
}

std::vector<daf::dyn::UpdateBatch> MakeUpdateBatches(const daf::Graph& g,
                                                     size_t count,
                                                     uint32_t ops,
                                                     daf::Rng& rng) {
  std::vector<daf::Edge> edges = g.EdgeList();
  std::sort(edges.begin(), edges.end());
  rng.Shuffle(edges);
  std::vector<daf::dyn::UpdateBatch> batches(count);
  size_t next = 0;
  const uint32_t n = g.NumVertices();
  for (daf::dyn::UpdateBatch& b : batches) {
    for (uint32_t i = 0; i < ops / 2 && next < edges.size(); ++i) {
      b.RemoveEdge(edges[next].first, edges[next].second);
      ++next;
    }
    while (b.insert_edges.size() < ops - ops / 2) {
      const auto u = static_cast<daf::VertexId>(rng.UniformInt(n));
      const auto v = static_cast<daf::VertexId>(rng.UniformInt(n));
      if (u != v && !g.HasEdge(u, v)) b.InsertEdge(u, v);
    }
  }
  return batches;
}

std::vector<double> ZipfWeights(size_t n, double s) {
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
  }
  return weights;
}

void PrintResult(const Args& args, const Outcome& outcome) {
  // The reproducibility record: seed, workload constants, host fingerprint.
  std::string record = "{\"perfbench\":{\"workload\":" +
                       JsonString(args.workload) +
                       ",\"seed\":" + std::to_string(args.seed) +
                       ",\"seconds\":" + JsonNumber(args.seconds) +
                       ",\"trace\":" + (args.trace ? "true" : "false") +
                       ",\"host\":{\"cpu\":" + JsonString(CpuModel()) +
                       ",\"nproc\":" +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
                       ",\"simd\":" + JsonString(SimdTier()) + "}";
  record += ",\"error_rate\":{\"value\":" +
            JsonNumber(outcome.attempted > 0
                           ? static_cast<double>(outcome.failed) /
                                 static_cast<double>(outcome.attempted)
                           : 0.0) +
            ",\"unit\":\"ratio\"}";
  for (const auto& [key, json] : outcome.record) {
    record += ',';
    record += JsonString(key);
    record += ':';
    record += json;
  }
  record += "}}";
  std::printf("%s\n", record.c_str());

  const std::vector<MetricSpec>& specs =
      args.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string line = std::string("{\"correct\":") +
                     (outcome.correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(outcome.attempted) +
                     ",\"failed\":" + std::to_string(outcome.failed) +
                     ",\"metrics\":{";
  for (size_t i = 0; i < specs.size(); ++i) {
    auto it = outcome.metrics.find(specs[i].name);
    const double value = it == outcome.metrics.end() ? 0.0 : it->second;
    if (i > 0) line += ",";
    line += JsonString(specs[i].name) + ":{\"value\":" + JsonNumber(value) +
            ",\"unit\":" + JsonString(specs[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
