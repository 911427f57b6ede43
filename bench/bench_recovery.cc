// Recovery benchmark: what a restart of the durable match service costs.
//
// Three measurements over a synthetic R-MAT graph (the same generator the
// dynamic benchmark uses):
//
//   cold_start   loading the graph from the text format vs the DAFS binary
//                snapshot (median of --reps runs each). The binary path is
//                a bounds-checked memcpy into CSR arrays; the text path
//                re-parses and re-sorts. The smoke gate requires the
//                snapshot load to be >= 5x faster.
//   wal_replay   DurableStore::Open over a directory holding one snapshot
//                plus a WAL of --wal_batches batches: full recovery time
//                and records/second replayed.
//   tail_sweep   the same open (median of --reps) at WAL tails of 0,
//                wal_batches/4 and wal_batches batches of one stream, with
//                RecoveryInfo's load / replay / build split. Replay never
//                compacts and the build runs once, so open time should grow
//                linearly with the tail.
//   sizes        bytes on disk for both formats (the snapshot also wins
//                on size; the report records the ratio).
//
//   $ ./bench/bench_recovery                 # full run, BENCH_recovery.json
//   $ ./bench/bench_recovery --smoke        # CI gate: cold-start >= 5x
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "dyn/delta_graph.h"
#include "dyn/update_batch.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "obs/json.h"
#include "persist/snapshot.h"
#include "persist/store.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/timer.h"

namespace daf {
namespace {

struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/daf_bench_recovery_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    path = made != nullptr ? made : "";
  }
  ~TempDir() {
    if (path.empty()) return;
    std::string cmd = "rm -rf '" + path + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }
  std::string File(const std::string& name) const { return path + "/" + name; }
  std::string path;
};

double MedianMs(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// One balanced update batch against the current state (half removals of
/// existing edges, half fresh inserts), valid by construction.
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

int Run(int argc, char** argv) {
  FlagSet flags;
  int64_t& rmat_scale =
      flags.Int64("rmat_scale", 17, "R-MAT vertex scale (2^scale vertices)");
  int64_t& edges = flags.Int64("edges", 1000000, "data graph edges");
  int64_t& num_labels = flags.Int64("labels", 24, "vertex label count");
  int64_t& reps = flags.Int64("reps", 5, "load repetitions (median wins)");
  int64_t& wal_batches =
      flags.Int64("wal_batches", 200, "batches in the replayed WAL");
  int64_t& batch_edges =
      flags.Int64("batch_edges", 200, "operations per WAL batch");
  int64_t& seed = flags.Int64("seed", 42, "generator seed");
  std::string& report =
      flags.String("report", "BENCH_recovery.json", "JSON report path");
  bool& smoke = flags.Bool(
      "smoke", false,
      "CI mode: smaller graph; exit nonzero unless the binary snapshot "
      "cold-start beats the text load by >= 5x");
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    flags.PrintUsage(argv[0]);
    return 1;
  }
  if (smoke) {
    rmat_scale = std::min<int64_t>(rmat_scale, 15);
    edges = std::min<int64_t>(edges, 300000);
    wal_batches = std::min<int64_t>(wal_batches, 50);
  }

  Rng rng(static_cast<uint64_t>(seed));
  std::fprintf(stderr, "synthesizing R-MAT graph (scale %lld, %lld edges)\n",
               static_cast<long long>(rmat_scale),
               static_cast<long long>(edges));
  const uint32_t n = 1u << static_cast<uint32_t>(rmat_scale);
  std::vector<Edge> data_edges =
      RmatEdges(static_cast<uint32_t>(rmat_scale),
                static_cast<uint64_t>(edges), 0.57, 0.19, 0.19, rng);
  ConnectComponents(n, &data_edges, rng);
  const Graph data = Graph::FromEdges(
      ZipfLabels(n, static_cast<uint32_t>(num_labels), 0.7, rng), data_edges);
  std::fprintf(stderr, "data: %u vertices, %llu edges\n", data.NumVertices(),
               static_cast<unsigned long long>(data.NumEdges()));

  TempDir dir;
  const std::string text_path = dir.File("graph.txt");
  const std::string snap_path = dir.File("graph.dafs");
  std::string error;
  if (!SaveGraph(data, text_path, &error) ||
      !persist::WriteSnapshot(data, 0, snap_path, &error)) {
    std::fprintf(stderr, "write failed: %s\n", error.c_str());
    return 1;
  }
  const uint64_t text_bytes = std::filesystem::file_size(text_path);
  const uint64_t snap_bytes = std::filesystem::file_size(snap_path);

  // --- Cold start: text vs binary snapshot.
  std::vector<double> text_ms, snap_ms;
  for (int64_t r = 0; r < reps; ++r) {
    Stopwatch t1;
    std::optional<Graph> g1 = LoadGraph(text_path, &error);
    text_ms.push_back(t1.ElapsedMs());
    Stopwatch t2;
    std::optional<Graph> g2 = persist::LoadSnapshot(snap_path, nullptr, &error);
    snap_ms.push_back(t2.ElapsedMs());
    if (!g1.has_value() || !g2.has_value() ||
        g1->NumEdges() != g2->NumEdges()) {
      std::fprintf(stderr, "cold-start load mismatch: %s\n", error.c_str());
      return 1;
    }
  }
  const double text_p50 = MedianMs(text_ms);
  const double snap_p50 = MedianMs(snap_ms);
  const double speedup = snap_p50 > 0 ? text_p50 / snap_p50 : 0.0;

  // --- WAL replay: log one batch stream, then seed one store per swept
  // tail length with its prefix and recover each.
  struct Record {
    dyn::NormalizedBatch net;
    std::vector<Label> new_vertex_labels;
  };
  std::vector<Record> records;
  {
    dyn::DeltaGraph dg(data);
    for (int64_t i = 0; i < wal_batches; ++i) {
      dyn::UpdateBatch batch = MakeBatch(
          *dg.Materialize(), static_cast<uint64_t>(batch_edges), rng);
      Record record{{}, batch.add_vertices};
      if (!dg.Normalize(batch, &record.net, &error) ||
          !dg.ApplyNormalized(record.net, record.new_vertex_labels).ok) {
        std::fprintf(stderr, "apply failed: %s\n", error.c_str());
        return 1;
      }
      records.push_back(std::move(record));
    }
  }
  struct TailPoint {
    int64_t tail = 0;
    uint64_t wal_bytes = 0;
    double open_ms = 0;  // medians over --reps opens
    double load_ms = 0;
    double replay_ms = 0;
    double build_ms = 0;
  };
  std::vector<TailPoint> sweep;
  for (int64_t tail : {int64_t{0}, wal_batches / 4, wal_batches}) {
    TailPoint point;
    point.tail = tail;
    const std::string store_dir = dir.File("store-" + std::to_string(tail));
    {
      persist::DurableStore::Options options;
      options.fsync_policy = persist::FsyncPolicy::kOff;
      auto store = persist::DurableStore::Open(store_dir, options, &error);
      if (store == nullptr || !store->InitializeFresh(data, 0, &error)) {
        std::fprintf(stderr, "store init failed: %s\n", error.c_str());
        return 1;
      }
      for (int64_t i = 0; i < tail; ++i) {
        if (!store->AppendBatch(records[i].net, records[i].new_vertex_labels,
                                static_cast<uint64_t>(i) + 1, &error)) {
          std::fprintf(stderr, "append failed: %s\n", error.c_str());
          return 1;
        }
      }
      point.wal_bytes = store->Stats().wal_bytes;
      if (!store->Sync(&error)) {
        std::fprintf(stderr, "sync failed: %s\n", error.c_str());
        return 1;
      }
    }
    std::vector<double> open_ms, load_ms, replay_ms, build_ms;
    for (int64_t r = 0; r < reps; ++r) {
      Stopwatch timer;
      auto store = persist::DurableStore::Open(store_dir, {}, &error);
      open_ms.push_back(timer.ElapsedMs());
      if (store == nullptr || !store->has_state()) {
        std::fprintf(stderr, "recovery failed: %s\n", error.c_str());
        return 1;
      }
      const persist::RecoveryInfo& info = store->recovery();
      if (info.wal_records_replayed != static_cast<uint64_t>(tail)) {
        std::fprintf(stderr, "GATE: replayed %llu != logged %lld\n",
                     static_cast<unsigned long long>(info.wal_records_replayed),
                     static_cast<long long>(tail));
        return 1;
      }
      load_ms.push_back(info.load_ms);
      replay_ms.push_back(info.replay_ms);
      build_ms.push_back(info.build_ms);
    }
    point.open_ms = MedianMs(open_ms);
    point.load_ms = MedianMs(load_ms);
    point.replay_ms = MedianMs(replay_ms);
    point.build_ms = MedianMs(build_ms);
    sweep.push_back(point);
  }
  const TailPoint& full = sweep.back();
  const uint64_t replayed = static_cast<uint64_t>(full.tail);
  const uint64_t wal_bytes = full.wal_bytes;
  const double recovery_ms = full.open_ms;
  const double replay_per_sec =
      recovery_ms > 0 ? 1000.0 * static_cast<double>(replayed) / recovery_ms
                      : 0.0;

  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("recovery");
  w.Key("config").BeginObject()
      .Key("rmat_scale").Int(rmat_scale)
      .Key("edges").Int(edges)
      .Key("labels").Int(num_labels)
      .Key("reps").Int(reps)
      .Key("wal_batches").Int(wal_batches)
      .Key("batch_edges").Int(batch_edges)
      .Key("seed").Int(seed)
      .Key("smoke").Bool(smoke)
      .EndObject();
  w.Key("cold_start").BeginObject()
      .Key("text_p50_ms").Double(text_p50)
      .Key("snapshot_p50_ms").Double(snap_p50)
      .Key("speedup").Double(speedup)
      .Key("text_bytes").Uint(text_bytes)
      .Key("snapshot_bytes").Uint(snap_bytes)
      .Key("size_ratio")
      .Double(snap_bytes > 0
                  ? static_cast<double>(text_bytes) /
                        static_cast<double>(snap_bytes)
                  : 0.0)
      .EndObject();
  w.Key("wal_replay").BeginObject()
      .Key("records").Uint(replayed)
      .Key("wal_bytes").Uint(wal_bytes)
      .Key("recovery_ms").Double(recovery_ms)
      .Key("records_per_sec").Double(replay_per_sec)
      .EndObject();
  w.Key("tail_sweep").BeginArray();
  for (const TailPoint& point : sweep) {
    w.BeginObject()
        .Key("tail").Int(point.tail)
        .Key("wal_bytes").Uint(point.wal_bytes)
        .Key("open_ms").Double(point.open_ms)
        .Key("load_ms").Double(point.load_ms)
        .Key("replay_ms").Double(point.replay_ms)
        .Key("build_ms").Double(point.build_ms)
        .EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::FILE* f = std::fopen(report.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", report.c_str());
    return 1;
  }
  std::fprintf(f, "%s\n", w.str().c_str());
  std::fclose(f);

  std::printf(
      "bench_recovery: %u vertices, %llu edges\n"
      "  cold start  text %.1f ms (%.1f MB)  snapshot %.1f ms (%.1f MB)  "
      "speedup %.1fx\n"
      "  wal replay  %llu records in %.1f ms (%.0f records/s, %.2f MB)\n",
      data.NumVertices(), static_cast<unsigned long long>(data.NumEdges()),
      text_p50, static_cast<double>(text_bytes) / 1e6, snap_p50,
      static_cast<double>(snap_bytes) / 1e6, speedup,
      static_cast<unsigned long long>(replayed), recovery_ms, replay_per_sec,
      static_cast<double>(wal_bytes) / 1e6);
  for (const TailPoint& point : sweep) {
    std::printf(
        "  tail %5lld  open %.1f ms = load %.1f + replay %.1f + build %.1f\n",
        static_cast<long long>(point.tail), point.open_ms, point.load_ms,
        point.replay_ms, point.build_ms);
  }
  std::printf("  report      %s\n", report.c_str());

  if (smoke && speedup < 5.0) {
    std::fprintf(stderr,
                 "recovery GATE: snapshot cold-start speedup %.2fx < 5x "
                 "(text %.2f ms, snapshot %.2f ms)\n",
                 speedup, text_p50, snap_p50);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace daf

int main(int argc, char** argv) { return daf::Run(argc, argv); }
