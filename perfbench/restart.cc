// Workload `restart`: the service's third request path. Set-up writes a
// durable store holding a snapshot of the `serve` graph plus a WAL tail of
// update batches; each timed operation opens the store (snapshot load and
// WAL replay), constructs a MatchService from it, and completes one read
// job.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "daf/engine.h"
#include "dyn/delta_graph.h"
#include "persist/store.h"
#include "service/match_service.h"

namespace perfbench {
namespace {

namespace service = daf::service;

constexpr RmatSpec kGraph;
constexpr uint32_t kWalBatches = 200;
constexpr uint32_t kBatchOps = 500;  // half inserts, half removes
constexpr uint32_t kProbes = 8;      // read patterns, cycled over the ops
constexpr uint64_t kReadLimit = 1000;
constexpr uint32_t kWorkers = 2;
constexpr uint32_t kIntraQueryThreads = 2;
// About 80 restarts fit in a 20-second run, so p75 is the highest steady
// percentile with ten samples beyond it.
constexpr double kTailQuantile = 0.75;

struct RestartInputs {
  std::string dir;
  std::vector<daf::Graph> probes;
  uint64_t final_version = 0;
  uint64_t final_edges = 0;
  std::shared_ptr<const daf::Graph> final_graph;  // for the oracle
};

RestartInputs MakeInputs(const Args& args, int repetition) {
  RestartInputs in;
  const daf::Graph graph = MakeRmatGraph(kGraph);
  daf::Rng rng(args.seed * 15485863 + 11);
  std::vector<std::vector<uint64_t>> keys;
  in.probes = DistinctPatterns(graph, kProbes, 4, 12, rng, &keys);
  const std::vector<daf::dyn::UpdateBatch> batches =
      MakeUpdateBatches(graph, kWalBatches, kBatchOps, rng);

  in.dir = args.workdir + "/restart-store-" + std::to_string(repetition);
  std::filesystem::remove_all(in.dir);
  std::filesystem::create_directories(args.workdir);
  daf::persist::DurableStore::Options options;
  // Writing the store is set-up, not the measured path: skip the fsyncs.
  options.fsync_policy = daf::persist::FsyncPolicy::kOff;
  std::string error;
  std::unique_ptr<daf::persist::DurableStore> store =
      daf::persist::DurableStore::Open(in.dir, options, &error);
  if (store == nullptr || !store->InitializeFresh(graph, 0, &error)) {
    std::fprintf(stderr, "perfbench: cannot write store: %s\n",
                 error.c_str());
    std::exit(3);
  }
  daf::dyn::DeltaGraph dg(graph);
  for (const daf::dyn::UpdateBatch& batch : batches) {
    daf::dyn::NormalizedBatch net;
    if (!dg.Normalize(batch, &net, &error) ||
        !store->AppendBatch(net, batch.add_vertices, dg.version() + 1,
                            &error) ||
        !dg.ApplyNormalized(net, batch.add_vertices).ok) {
      std::fprintf(stderr, "perfbench: cannot log batch: %s\n",
                   error.c_str());
      std::exit(3);
    }
  }
  if (!store->Sync(&error)) {
    std::fprintf(stderr, "perfbench: cannot sync store: %s\n", error.c_str());
    std::exit(3);
  }
  in.final_version = dg.version();
  in.final_edges = dg.NumEdges();
  in.final_graph = dg.Materialize();
  return in;
}

struct RestartSample {
  double total_ms = 0;
  double open_ms = 0, ctor_ms = 0, first_job_ms = 0;
  double job_wait_ms = 0, job_run_ms = 0;
  uint64_t replayed = 0;
  uint64_t version = 0, edges = 0;
  service::JobStatus status = service::JobStatus::kQueued;
  uint64_t embeddings = 0;
};

// One restart: open the store, construct the service, complete one read.
RestartSample Restart(const RestartInputs& in, const daf::Graph& probe) {
  RestartSample s;
  const Clock::time_point t0 = Clock::now();
  std::string error;
  std::unique_ptr<daf::persist::DurableStore> store =
      daf::persist::DurableStore::Open(in.dir, {}, &error);
  const Clock::time_point t1 = Clock::now();
  if (store == nullptr) return s;
  s.replayed = store->recovery().wal_records_replayed;
  service::ServiceOptions options;
  options.num_workers = kWorkers;
  options.intra_query_threads = kIntraQueryThreads;
  options.data_store = std::move(store);
  service::MatchService svc(daf::Graph(), options);
  const Clock::time_point t2 = Clock::now();
  service::QueryJob job;
  job.query = probe;
  job.limit = kReadLimit;
  service::JobHandle handle = svc.Submit(std::move(job));
  s.status = handle.Wait();
  const Clock::time_point t3 = Clock::now();
  s.open_ms = Ms(t0, t1);
  s.ctor_ms = Ms(t1, t2);
  s.first_job_ms = Ms(t2, t3);
  s.total_ms = Ms(t0, t3);
  s.job_wait_ms = handle.wait_ms();
  s.job_run_ms = handle.run_ms();
  s.embeddings = handle.Result().embeddings;
  s.version = svc.GraphVersion();
  s.edges = svc.Snapshot()->NumEdges();
  return s;
}

}  // namespace

Outcome RunRestart(const Args& args) {
  Outcome out;
  RestartInputs in;
  int repetition = 0;
  const double setup_s = MedianSetupSeconds(
      5, [&] { in = MakeInputs(args, repetition++); },
      [&] { std::filesystem::remove_all(in.dir); });

  out.Note("rmat_scale", kGraph.scale);
  out.Note("rmat_edges_requested", static_cast<double>(kGraph.edges));
  out.Note("rmat_seed", static_cast<double>(kGraph.seed));
  out.Note("wal_batches", kWalBatches);
  out.Note("batch_ops", kBatchOps);
  out.Note("probe_patterns", kProbes);
  out.Note("read_limit", static_cast<double>(kReadLimit));
  out.Note("workers", kWorkers);
  out.Note("intra_query_threads", kIntraQueryThreads);
  out.Note("fsync_policy", "every-batch");
  out.Note("tail_quantile", kTailQuantile);

  // Oracle inputs, outside set-up and timing: each probe's count on the
  // pre-restart graph.
  std::vector<uint64_t> expected;
  {
    daf::MatchContext context;
    for (const daf::Graph& probe : in.probes) {
      daf::MatchOptions options;
      options.limit = kReadLimit;
      expected.push_back(
          daf::DafMatch(probe, *in.final_graph, options, &context).embeddings);
    }
  }
  in.final_graph.reset();

  // Warm-up: one restart, so the page cache holds the store.
  Restart(in, in.probes[0]);

  std::vector<double> total, open, ctor, first_job, leftover, traced,
      untraced;
  uint64_t replayed = 0;
  const Clock::time_point end = After(args.seconds);
  for (size_t i = 0; Clock::now() < end; ++i) {
    const size_t p = i % in.probes.size();
    const RestartSample s = Restart(in, in.probes[p]);
    ++out.attempted;
    if (s.status != service::JobStatus::kDone) {
      ++out.failed;
      continue;
    }
    if (s.version != in.final_version || s.edges != in.final_edges ||
        s.embeddings != expected[p]) {
      out.Mismatch("restart " + std::to_string(i) + " recovered version " +
                   std::to_string(s.version) + " with " +
                   std::to_string(s.edges) + " edges and read " +
                   std::to_string(s.embeddings) + " embeddings; expected " +
                   std::to_string(in.final_version) + ", " +
                   std::to_string(in.final_edges) + ", " +
                   std::to_string(expected[p]));
    }
    total.push_back(s.total_ms);    // Traced runs split every other restart into its layers; the rest give
    // the untraced baseline for the tracing overhead.
    if (args.trace && i % 2 == 1) {
      traced.push_back(s.total_ms);
      open.push_back(s.open_ms);
      ctor.push_back(s.ctor_ms);
      first_job.push_back(s.first_job_ms);
      leftover.push_back(s.total_ms - s.open_ms - s.ctor_ms - s.job_wait_ms -
                         s.job_run_ms);
      replayed = s.replayed;
    } else {
      untraced.push_back(s.total_ms);
    }
  }
  std::filesystem::remove_all(in.dir);
  out.Note("final_version", static_cast<double>(in.final_version));
  out.Note("final_edges", static_cast<double>(in.final_edges));
  out.Note("samples", static_cast<double>(total.size()));

  if (!args.trace) {
    const double elapsed_s = Mean(total) * total.size() / 1000.0;
    out.Set("setup_s", setup_s);
    out.Set("peak_rss_mb", PeakRssMb());
    out.Set("ops_per_s", elapsed_s > 0 ? total.size() / elapsed_s : 0.0);
    out.Set("latency_p50_ms", Percentile(total, 0.5));
    out.Set("latency_tail_ms", Percentile(total, kTailQuantile));
    out.NoteJson("restart_quantiles_ms", QuantilesJson(total));
    out.Report("restart_p50_ms", Percentile(total, 0.5), "ms");
    out.Report("restart_p75_ms", Percentile(total, kTailQuantile), "ms");
    out.Report("restart_p90_ms", Percentile(total, 0.9), "ms");
    return out;
  }
  out.Set("store.open_ms", Mean(open));
  out.Set("store.replayed_records", static_cast<double>(replayed));
  out.Set("match_service.ctor_ms", Mean(ctor));
  out.Set("match_service.first_job_ms", Mean(first_job));
  out.Set("leftover.restart_ms", Mean(leftover));
  SetTraceOverhead(traced, untraced, &out);
  return out;
}

}  // namespace perfbench
