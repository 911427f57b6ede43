#include "bench_util.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "baselines/cfl_match.h"
#include "baselines/gaddi.h"
#include "baselines/graphql.h"
#include "baselines/quicksi.h"
#include "baselines/spath.h"
#include "baselines/turboiso.h"
#include "baselines/vf2.h"
#include "obs/json.h"
#include "util/timer.h"

namespace daf::bench {

namespace {

// --- Machine-readable result recording (BENCH_<figure>.json) -------------

struct ReportRow {
  std::string label;
  Summary summary;
};

std::vector<ReportRow>& ReportRows() {
  static std::vector<ReportRow> rows;
  return rows;
}

// Points at the live CommonFlags' --report value while a harness runs.
const std::string* g_report_flag = nullptr;

// The harness binary's figure name: basename without a "bench_" prefix.
std::string FigureName() {
#if defined(__GLIBC__)
  const char* name = program_invocation_short_name;
#else
  const char* name = "bench";
#endif
  std::string figure = name != nullptr ? name : "bench";
  if (figure.rfind("bench_", 0) == 0) figure = figure.substr(6);
  return figure;
}

void FlushBenchReport(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;  // report is best-effort; never fail a run
  std::string json = BenchReportJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

}  // namespace

CommonFlags::CommonFlags(FlagSet& flags)
    : scale(flags.Double("scale", 0.0,
                         "dataset scale in (0,1]; 0 = per-dataset default")),
      queries(flags.Int64("queries", 10, "queries per query set")),
      k(flags.Int64("k", 100000, "embeddings to find per query (paper: "
                                 "1e5); 0 = all")),
      timeout_ms(flags.Int64("timeout_ms", 2000,
                             "per-query time limit (paper: 600000)")),
      seed(flags.Int64("seed", 1, "workload RNG seed")),
      report(flags.String("report", "",
                          "JSON result file; empty = BENCH_<figure>.json, "
                          "'-' disables")) {
  g_report_flag = &report;
}

CommonFlags::~CommonFlags() {
  if (g_report_flag == &report) g_report_flag = nullptr;
}

std::string BenchReportPath() {
  if (g_report_flag != nullptr && *g_report_flag == "-") return "";
  if (g_report_flag != nullptr && !g_report_flag->empty()) {
    return *g_report_flag;
  }
  return "BENCH_" + FigureName() + ".json";
}

std::string BenchReportJson() {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("figure").String(FigureName());
  w.Key("rows").BeginArray();
  for (const ReportRow& row : ReportRows()) {
    const Summary& s = row.summary;
    w.BeginObject();
    w.Key("label").String(row.label);
    w.Key("algorithm").String(s.algorithm);
    w.Key("avg_ms").Double(s.avg_ms);
    w.Key("avg_preprocess_ms").Double(s.avg_preprocess_ms);
    w.Key("avg_calls").Double(s.avg_calls);
    w.Key("avg_aux").Double(s.avg_aux);
    w.Key("solved_pct").Double(s.solved_pct);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

void ResetBenchReport() { ReportRows().clear(); }

double DefaultScale(workload::DatasetId id) {
  switch (id) {
    case workload::DatasetId::kYeast:
      return 0.5;
    case workload::DatasetId::kHuman:
      return 0.2;
    case workload::DatasetId::kHprd:
      return 0.3;
    case workload::DatasetId::kEmail:
      return 0.1;
    case workload::DatasetId::kDblp:
      return 0.02;
    case workload::DatasetId::kYago:
      return 0.005;
    case workload::DatasetId::kTwitterSim:
      return 0.02;
  }
  return 0.1;
}

Graph BuildDataset(workload::DatasetId id, const CommonFlags& flags) {
  double scale = flags.scale > 0 ? flags.scale : DefaultScale(id);
  Stopwatch timer;
  Graph g = workload::MakeDataset(id, scale, static_cast<uint64_t>(flags.seed));
  std::fprintf(stderr,
               "[bench] %s stand-in @ scale %.3g: |V|=%u |E|=%llu |Sigma|=%u "
               "avg-deg=%.2f (built in %.0f ms)\n",
               workload::GetSpec(id).name, scale, g.NumVertices(),
               static_cast<unsigned long long>(g.NumEdges()), g.NumLabels(),
               g.AverageDegree(), timer.ElapsedMs());
  return g;
}

std::vector<Summary> EvaluateQuerySet(const std::vector<Graph>& queries,
                                      const std::vector<Algorithm>& algos,
                                      const std::string& label) {
  struct PerAlgorithm {
    std::vector<Outcome> solved;
    uint32_t solved_count = 0;
  };
  std::vector<PerAlgorithm> results(algos.size());
  for (const Graph& query : queries) {
    for (size_t a = 0; a < algos.size(); ++a) {
      Outcome outcome = algos[a].run(query);
      if (outcome.solved) {
        results[a].solved.push_back(outcome);
        ++results[a].solved_count;
      }
    }
  }
  uint32_t n = queries.empty() ? 0 : static_cast<uint32_t>(-1);
  for (const PerAlgorithm& r : results) {
    n = std::min(n, r.solved_count);
  }
  std::vector<Summary> summaries;
  summaries.reserve(algos.size());
  for (size_t a = 0; a < algos.size(); ++a) {
    Summary s;
    s.algorithm = algos[a].name;
    s.solved_pct = queries.empty()
                       ? 0
                       : 100.0 * results[a].solved_count / queries.size();
    auto& solved = results[a].solved;
    std::sort(solved.begin(), solved.end(),
              [](const Outcome& x, const Outcome& y) {
                return x.total_ms < y.total_ms;
              });
    uint32_t count = std::min<uint32_t>(n, solved.size());
    if (count > 0) {
      for (uint32_t i = 0; i < count; ++i) {
        s.avg_ms += solved[i].total_ms;
        s.avg_preprocess_ms += solved[i].preprocess_ms;
        s.avg_calls += static_cast<double>(solved[i].calls);
        s.avg_aux += static_cast<double>(solved[i].aux_size);
      }
      s.avg_ms /= count;
      s.avg_preprocess_ms /= count;
      s.avg_calls /= count;
      s.avg_aux /= count;
    }
    summaries.push_back(s);
  }
  const std::string report_path = BenchReportPath();
  if (!report_path.empty()) {
    for (const Summary& s : summaries) ReportRows().push_back({label, s});
    FlushBenchReport(report_path);
  }
  return summaries;
}

Algorithm MakeDafAlgorithm(const std::string& name, const Graph& data,
                           const MatchOptions& base,
                           const CommonFlags& flags) {
  MatchOptions options = base;
  options.limit = static_cast<uint64_t>(flags.k);
  options.time_limit_ms = static_cast<uint64_t>(flags.timeout_ms);
  return Algorithm{
      name, [&data, options](const Graph& query) {
        MatchResult r = DafMatch(query, data, options);
        Outcome o;
        o.total_ms = r.preprocess_ms + r.search_ms;
        o.preprocess_ms = r.preprocess_ms;
        o.calls = r.recursive_calls;
        o.solved = r.ok && !r.timed_out;
        o.aux_size = r.cs_candidates;
        o.embeddings = r.embeddings;
        return o;
      }};
}

Algorithm MakeBaselineAlgorithm(const std::string& name, const Graph& data,
                                const CommonFlags& flags) {
  using Fn = baselines::MatcherResult (*)(const Graph&, const Graph&,
                                          const baselines::MatcherOptions&);
  Fn fn = nullptr;
  if (name == "VF2") fn = &baselines::Vf2Match;
  if (name == "QuickSI") fn = &baselines::QuickSiMatch;
  if (name == "GraphQL") fn = &baselines::GraphQlMatch;
  if (name == "SPath") fn = &baselines::SPathMatch;
  if (name == "GADDI") fn = &baselines::GaddiMatch;
  if (name == "TurboISO") fn = &baselines::TurboIsoMatch;
  if (name == "CFL-Match") fn = &baselines::CflMatch;
  baselines::MatcherOptions options;
  options.limit = static_cast<uint64_t>(flags.k);
  options.time_limit_ms = static_cast<uint64_t>(flags.timeout_ms);
  return Algorithm{
      name, [&data, fn, options](const Graph& query) {
        baselines::MatcherResult r = fn(query, data, options);
        Outcome o;
        o.total_ms = r.preprocess_ms + r.search_ms;
        o.preprocess_ms = r.preprocess_ms;
        o.calls = r.recursive_calls;
        o.solved = r.ok && !r.timed_out;
        o.aux_size = r.aux_size;
        o.embeddings = r.embeddings;
        return o;
      }};
}

void FillOneWorkerSplit(ParallelMatchResult* r) {
  if (r->threads_used != 1) return;
  r->per_thread_calls = {r->recursive_calls};
  r->call_imbalance = r->recursive_calls > 0 ? 1.0 : 0.0;
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  auto at = [&](double q) {
    size_t i = static_cast<size_t>(q * static_cast<double>(samples.size()));
    return samples[std::min(i, samples.size() - 1)];
  };
  s.p50 = at(0.50);
  s.p95 = at(0.95);
  s.p99 = at(0.99);
  s.max = samples.back();
  double sum = 0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  return s;
}

void WriteLatency(obs::JsonWriter& w, const LatencySummary& s) {
  w.BeginObject()
      .Key("p50_ms").Double(s.p50)
      .Key("p95_ms").Double(s.p95)
      .Key("p99_ms").Double(s.p99)
      .Key("max_ms").Double(s.max)
      .Key("mean_ms").Double(s.mean)
      .EndObject();
}

void PrintTableHeader(const std::string& title,
                      const std::vector<std::string>& columns) {
  std::printf("\n== %s ==\n", title.c_str());
  for (const std::string& column : columns) {
    std::printf("%-14s", column.c_str());
  }
  std::printf("\n");
}

void PrintSummaryRow(const std::string& query_set, const Summary& summary) {
  std::printf("%-14s%-14s%-14.2f%-14.0f%-14.1f\n", query_set.c_str(),
              summary.algorithm.c_str(), summary.avg_ms, summary.avg_calls,
              summary.solved_pct);
}

}  // namespace daf::bench
