// Dynamic-graph benchmark: delta-driven re-enumeration vs full re-match.
//
// A MatchService over a ~100k-edge R-MAT graph carries a few standing
// queries. Each round applies one small update batch (default 0.5% of the
// edges, half inserts / half removals) and measures both maintenance
// strategies:
//
//   delta      ApplyUpdates — incremental CandidateSpace maintenance plus
//              exact delta enumeration seeded at the changed edges — plus
//              draining the subscription queues.
//   rescratch  what a static engine must do instead: materialize the new
//              snapshot and run a full DafMatch per standing query.
//
// ApplyUpdates ends by materializing the new snapshot and publishing it
// to jobs (UpdateOutcome::publish_ms). That build is the rescratch side's
// first step, so it is timed there: the delta side is ApplyUpdates minus
// publish_ms, and the rescratch side adds publish_ms to its own time.
//
// Both run every round, so the rescratch result doubles as an oracle: the
// folded delta counts (initial matches + created - destroyed) must equal
// the fresh embedding counts exactly; any divergence is a violation and a
// nonzero exit. The report (BENCH_dynamic.json) records exact p50/p95/p99
// per side and the p50 speedup.
//
// With --persist the benchmark instead measures the durability tax: the
// same batch stream is applied to four otherwise identical services — no
// store, and a DurableStore under each fsync policy (off / interval /
// every) — and the report records per-batch apply latency (ApplyUpdates
// minus publish_ms, as above) for each plus the overhead ratio vs the
// in-memory baseline. The smoke gate for this mode requires the fsync-off
// WAL overhead to stay under 10%.
//
//   $ ./bench/bench_dynamic                  # 50 batches, 100k edges
//   $ ./bench/bench_dynamic --smoke          # CI gate: p50 speedup >= 5x
//   $ ./bench/bench_dynamic --batch_edges 1000 --batches 200
//   $ ./bench/bench_dynamic --persist --smoke   # WAL overhead gate < 10%
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "persist/store.h"

#include "bench_util.h"
#include "daf/engine.h"
#include "dyn/update_batch.h"
#include "graph/generators.h"
#include "obs/json.h"
#include "obs/service_metrics.h"
#include "service/match_service.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/timer.h"

namespace daf {
namespace {

using bench::LatencySummary;
using bench::Summarize;
using bench::WriteLatency;

// The standing queries: small connected patterns over the generator's most
// frequent labels, so they match often enough that batches regularly
// create and destroy embeddings (Zipf labeling makes label 0 common).
std::vector<Graph> StandingQueries() {
  std::vector<Graph> queries;
  queries.push_back(Graph::FromEdges({1, 0, 2}, {{0, 1}, {1, 2}}));
  queries.push_back(
      Graph::FromEdges({0, 1, 2}, {{0, 1}, {1, 2}, {2, 0}}));
  return queries;
}

// One small batch against the current snapshot: `size` operations, half
// removals of random existing edges, half inserts of random new pairs.
// Keeps the edge count roughly stable across a long run.
dyn::UpdateBatch MakeBatch(const Graph& snapshot, uint64_t size, Rng& rng) {
  const uint32_t n = snapshot.NumVertices();
  dyn::UpdateBatch batch;
  for (uint64_t i = 0; i < size / 2; ++i) {
    const VertexId u = static_cast<VertexId>(rng.UniformInt(n));
    auto neighbors = snapshot.Neighbors(u);
    if (neighbors.empty()) continue;
    batch.RemoveEdge(u, neighbors[rng.UniformInt(neighbors.size())]);
  }
  for (uint64_t i = 0; i < size - size / 2; ++i) {
    const VertexId u = static_cast<VertexId>(rng.UniformInt(n));
    const VertexId v = static_cast<VertexId>(rng.UniformInt(n));
    if (u != v && !snapshot.HasEdge(u, v)) batch.InsertEdge(u, v);
  }
  return batch;
}

/// A mkdtemp store directory removed when the phase ends.
struct TempStoreDir {
  TempStoreDir() {
    char tmpl[] = "/tmp/daf_bench_persist_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    path = made != nullptr ? made : "";
  }
  ~TempStoreDir() {
    if (path.empty()) return;
    std::string cmd = "rm -rf '" + path + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }
  std::string path;
};

struct PersistMode {
  const char* name;          // "none" or the fsync policy name
  bool durable = false;
  persist::FsyncPolicy policy = persist::FsyncPolicy::kOff;
};

/// Applies the deterministic batch stream to a service configured per
/// `mode`, returning per-batch apply latencies (ApplyUpdates minus the
/// snapshot publish, which no mode logs). Every mode sees the
/// identical stream (same seed, same initial graph), so the latency delta
/// is purely the durability tax.
std::vector<double> RunPersistMode(const Graph& data, const PersistMode& mode,
                                   int64_t batches, int64_t batch_edges,
                                   uint64_t seed, uint64_t* wal_bytes) {
  TempStoreDir dir;
  service::ServiceOptions options;
  options.num_workers = 1;
  if (mode.durable) {
    persist::DurableStore::Options store_options;
    store_options.fsync_policy = mode.policy;
    std::string error;
    auto store = persist::DurableStore::Open(dir.path, store_options, &error);
    if (store == nullptr) {
      std::fprintf(stderr, "persist bench: cannot open store: %s\n",
                   error.c_str());
      return {};
    }
    options.data_store = std::move(store);
  }
  Graph copy = data;
  service::MatchService service(std::move(copy), options);

  Rng rng(seed);
  std::vector<double> samples;
  std::shared_ptr<const Graph> snapshot = service.Snapshot();
  for (int64_t round = 0; round < batches; ++round) {
    dyn::UpdateBatch batch =
        MakeBatch(*snapshot, static_cast<uint64_t>(batch_edges), rng);
    Stopwatch timer;
    service::UpdateOutcome out = service.ApplyUpdates(batch);
    samples.push_back(timer.ElapsedMs() - out.publish_ms);
    if (!out.ok) {
      std::fprintf(stderr, "persist bench (%s): batch %lld rejected: %s\n",
                   mode.name, static_cast<long long>(round),
                   out.error.c_str());
      return {};
    }
    snapshot = service.Snapshot();
  }
  *wal_bytes = service.Metrics().persist_wal_bytes;
  service.GracefulShutdown(/*grace_ms=*/2000);
  return samples;
}

/// The --persist benchmark: durability tax per fsync policy.
int RunPersistBench(const Graph& data, int64_t batches, int64_t batch_edges,
                    uint64_t seed, const std::string& report, bool smoke) {
  const PersistMode modes[] = {
      {"none", false, persist::FsyncPolicy::kOff},
      {"off", true, persist::FsyncPolicy::kOff},
      {"interval", true, persist::FsyncPolicy::kInterval},
      {"every", true, persist::FsyncPolicy::kEveryBatch},
  };
  LatencySummary summaries[4];
  uint64_t wal_bytes[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    std::fprintf(stderr, "persist mode %s...\n", modes[i].name);
    std::vector<double> samples = RunPersistMode(
        data, modes[i], batches, batch_edges, seed, &wal_bytes[i]);
    if (samples.empty()) return 1;
    summaries[i] = Summarize(std::move(samples));
  }
  const double base_p50 = summaries[0].p50;
  auto overhead = [&](int i) {
    return base_p50 > 0 ? summaries[i].p50 / base_p50 - 1.0 : 0.0;
  };

  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("dynamic_persist");
  w.Key("config").BeginObject()
      .Key("batches").Int(batches)
      .Key("batch_edges").Int(batch_edges)
      .Key("seed").Int(static_cast<int64_t>(seed))
      .Key("smoke").Bool(smoke)
      .EndObject();
  w.Key("modes").BeginObject();
  for (int i = 0; i < 4; ++i) {
    w.Key(modes[i].name).BeginObject();
    w.Key("latency");
    WriteLatency(w, summaries[i]);
    w.Key("wal_bytes").Uint(wal_bytes[i]);
    if (i > 0) w.Key("p50_overhead").Double(overhead(i));
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::FILE* f = std::fopen(report.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", report.c_str());
    return 1;
  }
  std::fprintf(f, "%s\n", w.str().c_str());
  std::fclose(f);

  std::printf(
      "bench_dynamic --persist: %lld batches of %lld ops\n"
      "  none      p50 %.3f ms (in-memory baseline)\n"
      "  off       p50 %.3f ms  (+%5.1f%%)\n"
      "  interval  p50 %.3f ms  (+%5.1f%%)\n"
      "  every     p50 %.3f ms  (+%5.1f%%)\n"
      "  report    %s\n",
      static_cast<long long>(batches), static_cast<long long>(batch_edges),
      summaries[0].p50, summaries[1].p50, 100 * overhead(1),
      summaries[2].p50, 100 * overhead(2), summaries[3].p50,
      100 * overhead(3), report.c_str());

  if (smoke && overhead(1) >= 0.10) {
    std::fprintf(stderr,
                 "persist GATE: fsync-off WAL overhead %.1f%% >= 10%% "
                 "(none %.3f ms, off %.3f ms)\n",
                 100 * overhead(1), summaries[0].p50, summaries[1].p50);
    return 1;
  }
  return 0;
}

int Run(int argc, char** argv) {
  FlagSet flags;
  int64_t& rmat_scale =
      flags.Int64("rmat_scale", 15, "R-MAT vertex scale (2^scale vertices)");
  int64_t& edges = flags.Int64("edges", 100000, "data graph edges");
  int64_t& num_labels = flags.Int64("labels", 24, "vertex label count");
  int64_t& batches = flags.Int64("batches", 50, "update batches to apply");
  int64_t& batch_edges = flags.Int64(
      "batch_edges", 500, "operations per batch (<= 1% of edges)");
  int64_t& seed = flags.Int64("seed", 42, "generator seed");
  std::string& report =
      flags.String("report", "BENCH_dynamic.json", "JSON report path");
  bool& smoke = flags.Bool(
      "smoke", false,
      "CI mode: fewer batches; exit nonzero unless delta beats rescratch "
      "by >= 5x p50 and every oracle check passes");
  bool& persist = flags.Bool(
      "persist", false,
      "measure the durability tax instead: per-batch apply latency with no "
      "store vs a WAL under each fsync policy (smoke gate: fsync-off "
      "overhead < 10%)");
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    flags.PrintUsage(argv[0]);
    return 1;
  }
  if (smoke) batches = std::min<int64_t>(batches, 12);

  Rng rng(static_cast<uint64_t>(seed));
  std::fprintf(stderr, "synthesizing R-MAT graph (scale %lld, %lld edges)\n",
               static_cast<long long>(rmat_scale),
               static_cast<long long>(edges));
  const uint32_t n = 1u << static_cast<uint32_t>(rmat_scale);
  std::vector<Edge> data_edges =
      RmatEdges(static_cast<uint32_t>(rmat_scale),
                static_cast<uint64_t>(edges), 0.57, 0.19, 0.19, rng);
  ConnectComponents(n, &data_edges, rng);
  Graph data = Graph::FromEdges(
      ZipfLabels(n, static_cast<uint32_t>(num_labels), 0.7, rng),
      data_edges);
  std::fprintf(stderr, "data: %u vertices, %llu edges\n", data.NumVertices(),
               static_cast<unsigned long long>(data.NumEdges()));

  if (persist) {
    if (report == "BENCH_dynamic.json") report = "BENCH_dynamic_persist.json";
    return RunPersistBench(data, batches, batch_edges,
                           static_cast<uint64_t>(seed), report, smoke);
  }

  service::ServiceOptions options;
  options.num_workers = 1;  // updates and matching are measured inline
  service::MatchService service(std::move(data), options);

  const std::vector<Graph> queries = StandingQueries();
  std::vector<service::SubscriptionHandle> subs;
  std::vector<int64_t> live;  // folded embedding count per standing query
  for (const Graph& q : queries) {
    service::QueryJob job;
    job.query = q;
    subs.push_back(service.Subscribe(std::move(job)));
    if (!subs.back().ok()) {
      std::fprintf(stderr, "subscribe failed: %s\n",
                   subs.back().error().c_str());
      return 1;
    }
    MatchResult r = DafMatch(q, *service.Snapshot(), {});
    if (!r.ok) {
      std::fprintf(stderr, "initial match failed: %s\n", r.error.c_str());
      return 1;
    }
    live.push_back(static_cast<int64_t>(r.embeddings));
  }

  std::fprintf(stderr,
               "applying %lld batches of %lld ops (%.2f%% of edges)...\n",
               static_cast<long long>(batches),
               static_cast<long long>(batch_edges),
               100.0 * static_cast<double>(batch_edges) /
                   static_cast<double>(edges));
  int violations = 0;
  uint64_t deltas_streamed = 0;
  std::vector<double> delta_ms, rescratch_ms;
  std::shared_ptr<const Graph> snapshot = service.Snapshot();
  for (int64_t round = 0; round < batches; ++round) {
    dyn::UpdateBatch batch = MakeBatch(
        *snapshot, static_cast<uint64_t>(batch_edges), rng);

    // The delta path: apply + maintain + enumerate + drain.
    Stopwatch delta_timer;
    service::UpdateOutcome out = service.ApplyUpdates(batch);
    if (!out.ok) {
      std::fprintf(stderr, "batch %lld rejected: %s\n",
                   static_cast<long long>(round), out.error.c_str());
      return 1;
    }
    for (size_t s = 0; s < subs.size(); ++s) {
      for (service::DeltaBatch& db : subs[s].Drain()) {
        if (db.resync) {
          ++violations;
          std::fprintf(stderr, "VIOLATION: unexpected resync (round %lld)\n",
                       static_cast<long long>(round));
          continue;
        }
        for (const service::EmbeddingDelta& d : db.deltas) {
          live[s] += d.created ? 1 : -1;
          ++deltas_streamed;
        }
      }
    }
    delta_ms.push_back(delta_timer.ElapsedMs() - out.publish_ms);

    // The rescratch baseline — and the oracle for the folded counts.
    Stopwatch rescratch_timer;
    snapshot = service.Snapshot();
    for (size_t s = 0; s < queries.size(); ++s) {
      MatchResult r = DafMatch(queries[s], *snapshot, {});
      if (!r.ok || static_cast<int64_t>(r.embeddings) != live[s]) {
        ++violations;
        std::fprintf(
            stderr,
            "VIOLATION: query %zu round %lld: folded %lld != fresh %llu\n",
            s, static_cast<long long>(round),
            static_cast<long long>(live[s]),
            static_cast<unsigned long long>(r.embeddings));
      }
    }
    rescratch_ms.push_back(rescratch_timer.ElapsedMs() + out.publish_ms);
  }

  const LatencySummary delta_lat = Summarize(delta_ms);
  const LatencySummary rescratch_lat = Summarize(rescratch_ms);
  const double p50_speedup =
      delta_lat.p50 > 0 ? rescratch_lat.p50 / delta_lat.p50 : 0.0;
  obs::ServiceMetricsSnapshot metrics = service.Metrics();

  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("dynamic");
  w.Key("config").BeginObject()
      .Key("rmat_scale").Int(rmat_scale)
      .Key("edges").Int(edges)
      .Key("labels").Int(num_labels)
      .Key("batches").Int(batches)
      .Key("batch_edges").Int(batch_edges)
      .Key("batch_fraction")
      .Double(static_cast<double>(batch_edges) /
              static_cast<double>(edges))
      .Key("standing_queries").Uint(queries.size())
      .Key("seed").Int(seed)
      .Key("smoke").Bool(smoke)
      .EndObject();
  w.Key("latency_delta");
  WriteLatency(w, delta_lat);
  w.Key("latency_rescratch");
  WriteLatency(w, rescratch_lat);
  w.Key("p50_speedup").Double(p50_speedup);
  w.Key("deltas_streamed").Uint(deltas_streamed);
  w.Key("violations").Int(violations);
  w.Key("service_metrics");
  obs::WriteServiceMetrics(w, metrics);
  w.EndObject();
  std::FILE* f = std::fopen(report.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", report.c_str());
    return 1;
  }
  std::fprintf(f, "%s\n", w.str().c_str());
  std::fclose(f);

  std::printf(
      "bench_dynamic: %lld batches of %lld ops over %llu edges\n"
      "  delta      p50 %.3f ms  p95 %.3f ms  p99 %.3f ms\n"
      "  rescratch  p50 %.3f ms  p95 %.3f ms  p99 %.3f ms\n"
      "  p50 speedup %.1fx, %llu deltas streamed, %llu incremental / "
      "%llu rebuilds\n"
      "  oracle     %d violation(s)\n"
      "  report     %s\n",
      static_cast<long long>(batches),
      static_cast<long long>(batch_edges),
      static_cast<unsigned long long>(snapshot->NumEdges()), delta_lat.p50,
      delta_lat.p95, delta_lat.p99, rescratch_lat.p50, rescratch_lat.p95,
      rescratch_lat.p99, p50_speedup,
      static_cast<unsigned long long>(deltas_streamed),
      static_cast<unsigned long long>(metrics.dyn_cs_incremental),
      static_cast<unsigned long long>(metrics.dyn_cs_rebuilds), violations,
      report.c_str());

  if (violations > 0) return 1;
  if (smoke && p50_speedup < 5.0) {
    std::fprintf(stderr,
                 "dynamic GATE: p50 speedup %.2fx < 5x (delta %.3f ms, "
                 "rescratch %.3f ms)\n",
                 p50_speedup, delta_lat.p50, rescratch_lat.p50);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace daf

int main(int argc, char** argv) { return daf::Run(argc, argv); }
