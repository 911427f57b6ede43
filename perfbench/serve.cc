// Workloads `serve` and `serve-rw`: an open-loop client against a
// MatchService over an R-MAT graph. `serve` is read-only; `serve-rw` runs
// the same read stream while a writer applies update batches at a fixed
// rate into a durably logged service with standing subscriptions.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "daf/dynamic_cs.h"
#include "daf/engine.h"
#include "dyn/delta_enumerate.h"
#include "dyn/delta_graph.h"
#include "graph/canonical.h"
#include "obs/service_metrics.h"
#include "persist/store.h"
#include "service/match_service.h"
#include "workload/negative.h"

namespace perfbench {
namespace {

namespace service = daf::service;

// --- Workload constants (recorded in every result).
constexpr RmatSpec kGraph;
constexpr uint32_t kPoolPatterns = 64;   // Zipf-popular patterns
constexpr uint32_t kPoolNegatives = 8;   // of which label-perturbed
constexpr double kPoolZipf = 1.0;
constexpr uint32_t kMinPattern = 4;
constexpr uint32_t kMaxPattern = 12;
constexpr double kRate = 400;            // read jobs per second
constexpr double kFreshShare = 0.10;     // never-seen patterns
constexpr double kBypassShare = 0.5;     // of fresh jobs: skip the cache
constexpr double kInteractiveShare = 0.25;
constexpr double kStreamShare = 0.15;
constexpr uint64_t kInteractiveLimit = 100;
constexpr uint64_t kNormalLimit = 1000;
constexpr uint32_t kWorkers = 2;
constexpr uint32_t kIntraQueryThreads = 2;
constexpr double kBatchRate = 1;         // serve-rw: batches per second
constexpr uint32_t kBatchOps = 500;      // half inserts, half removes
constexpr uint32_t kSubscriptions = 64;  // serve-rw: standing queries
constexpr uint32_t kSubscriptionClasses = 16;  // distinct patterns among them
// Subscribed patterns are the smallest pool size: with larger ones the
// write cost hinges on which patterns a seed draws (perfbench/README.md).
constexpr uint32_t kSubscribedSize = kMinPattern;
// A subscribed pattern has at most this many embeddings, so the
// from-scratch oracle at the final version stays cheap.
constexpr uint64_t kSubscriptionCap = 20000;
// The service's threads (and the writer's ApplyUpdates) run at this nice
// value, below the open-loop client's, so that the client sends on time
// when the service fills every CPU.
constexpr int kServiceNice = 5;
constexpr double kTailQuantile = 0.99;
// Client threads that block on in-flight jobs until they finish.
constexpr uint32_t kWaiters = 4;
// Overload guard. A read or batch latency runs from when the client woke
// to send it, so the host waking the client late is lag, not latency. The
// measurement is invalid when the generator falls behind its schedule (lag
// p90 over one inter-arrival gap: a tenth of the jobs went out a gap late
// or more), or when the admission queue grows over the run.
constexpr double kMaxLagP90Ms = 1000.0 / kRate;
// A valid measurement with a lag p99 over this was taken while the host
// woke threads late; the service's own wake-ups were late too, and its
// read times measure the host. Calm periods give 0.1-0.7 ms.
constexpr double kCalmLagP99Ms = 1.0;
// Measurements per run: an invalid or non-calm one is taken once more.
constexpr uint32_t kAttempts = 2;
constexpr double kMaxBacklogGrowth = 16.0;
constexpr double kDepthSampleMs = 20.0;

enum class Kind : uint8_t { kInteractive, kStream, kNormal };

struct JobSpec {
  double offset_ms = 0;  // due time after the start of the timed phase
  Kind kind = Kind::kNormal;
  bool bypass = false;
  int pattern = 0;  // index into ServeInputs::patterns
  daf::Graph query;  // relabeled instance, moved into the job when sent
};

struct JobRecord {
  Clock::time_point start;  // when the sender woke to send the job
  double latency_ms = 0;    // start -> observed terminal
  double lag_ms = 0;        // due -> sent
  double wait_ms = 0, run_ms = 0;
  service::JobStatus status = service::JobStatus::kQueued;
  service::CacheOutcome cache = service::CacheOutcome::kNone;
  uint64_t embeddings = 0;
  uint64_t streamed = 0;
  double search_ms = 0;
  double profile_build_ms = 0;  // DAG + CS + weights the profile recorded
  bool parallel = false;
  double steal_idle_ms = 0, imbalance = 0;
};

struct Subscriber {
  int pattern = 0;
  service::SubscriptionHandle handle;
  int64_t count = 0;   // folded embedding count
  uint64_t hash = 0;   // folded multiset fingerprint
  uint64_t resyncs = 0;
};

struct ServeInputs {
  daf::Graph graph;
  // Pool patterns first (popularity rank order), then fresh patterns.
  std::vector<daf::Graph> patterns;
  std::vector<JobSpec> jobs;
  std::vector<daf::dyn::UpdateBatch> batches;
  std::vector<int> classes;     // pool patterns the subscriptions use
  std::vector<int> subscribed;  // pattern index per subscription
  std::unique_ptr<service::MatchService> service;
  std::vector<Subscriber> subscribers;
  std::string store_dir;
};

uint64_t LimitOf(Kind kind) {
  return kind == Kind::kInteractive ? kInteractiveLimit : kNormalLimit;
}

// Sets the calling thread's nice value to kServiceNice.
void LowerPriority() {
  setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), kServiceNice);
}

// The kSubscriptionClasses pool patterns the standing queries use: patterns
// of kSubscribedSize vertices whose result sets stay small enough to
// re-derive from scratch at the end.
std::vector<daf::Graph> SubscriptionClasses(
    const daf::Graph& g, daf::Rng& rng,
    std::vector<std::vector<uint64_t>>* keys) {
  std::vector<daf::Graph> classes;
  daf::MatchContext context;
  daf::MatchOptions options;
  options.limit = kSubscriptionCap + 1;
  for (uint32_t attempt = 0; attempt < 20 * kSubscriptionClasses &&
                             classes.size() < kSubscriptionClasses;
       ++attempt) {
    std::vector<daf::Graph> one =
        DistinctPatterns(g, 1, kSubscribedSize, kSubscribedSize, rng, keys);
    if (!one.empty() && daf::DafMatch(one[0], g, options, &context)
                                .embeddings <= kSubscriptionCap) {
      classes.push_back(std::move(one[0]));
    }
  }
  return classes;
}

ServeInputs MakeInputs(const Args& args, bool with_writes, int repetition) {
  ServeInputs in;
  in.graph = MakeRmatGraph(kGraph);
  daf::Rng rng(args.seed * 104729 + 3);
  std::vector<std::vector<uint64_t>> keys;
  // serve generates the batches and subscription classes too, so that both
  // workloads draw the same pool and the same read stream.
  const size_t num_batches =
      std::max<size_t>(1, static_cast<size_t>(kBatchRate * args.seconds));
  in.batches = MakeUpdateBatches(in.graph, num_batches, kBatchOps, rng);
  std::vector<daf::Graph> pool = SubscriptionClasses(in.graph, rng, &keys);
  const size_t num_classes = pool.size();
  for (daf::Graph& g : DistinctPatterns(
           in.graph, kPoolPatterns - kPoolNegatives - num_classes,
           kMinPattern, kMaxPattern, rng, &keys)) {
    pool.push_back(std::move(g));
  }
  const size_t num_positive = pool.size();
  for (uint32_t i = 0; pool.size() < kPoolPatterns && i < 64; ++i) {
    daf::Graph negative = daf::workload::PerturbLabels(
        pool[i % num_positive], in.graph, 2, rng);
    std::vector<uint64_t> key = daf::CanonicalizeQuery(negative).key;
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) continue;
    keys.push_back(std::move(key));
    pool.push_back(std::move(negative));
  }
  // Random popularity ranks for every pool pattern, classes included.
  std::vector<int> rank(pool.size());
  std::iota(rank.begin(), rank.end(), 0);
  rng.Shuffle(rank);
  in.patterns.resize(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    in.patterns[rank[i]] = std::move(pool[i]);
  }
  for (size_t c = 0; c < num_classes; ++c) in.classes.push_back(rank[c]);

  const size_t num_jobs = static_cast<size_t>(kRate * args.seconds);
  const size_t num_fresh =
      static_cast<size_t>(kFreshShare * static_cast<double>(num_jobs)) + 1;
  std::vector<daf::Graph> fresh = DistinctPatterns(
      in.graph, static_cast<uint32_t>(num_fresh), kMinPattern, kMaxPattern,
      rng, &keys);
  const int pool_size = static_cast<int>(in.patterns.size());
  for (daf::Graph& g : fresh) in.patterns.push_back(std::move(g));

  const std::vector<double> popularity = ZipfWeights(pool_size, kPoolZipf);
  size_t next_fresh = 0;
  in.jobs.resize(num_jobs);
  for (size_t i = 0; i < num_jobs; ++i) {
    JobSpec& job = in.jobs[i];
    job.offset_ms = 1000.0 * static_cast<double>(i) / kRate;
    const double kind = rng.UniformReal();
    job.kind = kind < kInteractiveShare ? Kind::kInteractive
               : kind < kInteractiveShare + kStreamShare ? Kind::kStream
                                                         : Kind::kNormal;
    if (rng.UniformReal() < kFreshShare && next_fresh < fresh.size()) {
      job.pattern = pool_size + static_cast<int>(next_fresh++);
      job.bypass = rng.UniformReal() < kBypassShare;
    } else {
      job.pattern = static_cast<int>(rng.WeightedIndex(popularity));
    }
    job.query = Relabel(in.patterns[job.pattern], rng);
  }

  service::ServiceOptions options;
  options.num_workers = kWorkers;
  options.intra_query_threads = kIntraQueryThreads;
  if (!with_writes) {
    in.batches.clear();
  } else {
    if (in.classes.empty()) {
      std::fprintf(stderr, "perfbench: no pattern qualifies to subscribe\n");
      std::exit(3);
    }
    for (uint32_t s = 0; s < kSubscriptions; ++s) {
      in.subscribed.push_back(in.classes[s % in.classes.size()]);
    }
    in.store_dir = args.workdir + "/serve-rw-store-" +
                   std::to_string(repetition);
    std::filesystem::remove_all(in.store_dir);
    std::filesystem::create_directories(args.workdir);
    daf::persist::DurableStore::Options store_options;  // fsync every batch
    std::string error;
    auto store =
        daf::persist::DurableStore::Open(in.store_dir, store_options, &error);
    if (store == nullptr) {
      std::fprintf(stderr, "perfbench: cannot open store: %s\n",
                   error.c_str());
      std::exit(3);
    }
    options.data_store = std::move(store);
  }
  // Threads inherit the nice value of the thread that creates them.
  std::thread([&] {
    LowerPriority();
    in.service = std::make_unique<service::MatchService>(in.graph, options);
  }).join();
  for (int p : in.subscribed) {
    service::QueryJob job;
    job.query = in.patterns[p];
    Subscriber sub;
    sub.pattern = p;
    sub.handle = in.service->Subscribe(std::move(job));
    in.subscribers.push_back(std::move(sub));
  }
  // Cache warm-up: every pool pattern once.
  std::vector<service::JobHandle> warm;
  for (int p = 0; p < pool_size; ++p) {
    service::QueryJob job;
    job.query = in.patterns[p];
    job.limit = kNormalLimit;
    warm.push_back(in.service->Submit(std::move(job)));
  }
  in.service->Drain();
  return in;
}

// Exact embedding count and fingerprint of `query` in `g` (no limit).
std::pair<int64_t, uint64_t> FullMatch(const daf::Graph& query,
                                       const daf::Graph& g,
                                       daf::MatchContext* context) {
  uint64_t hash = 0;
  daf::MatchOptions options;
  options.callback = [&](std::span<const daf::VertexId> m) {
    hash += EmbeddingHash(m);
    return true;
  };
  const daf::MatchResult r = daf::DafMatch(query, g, options, context);
  return {static_cast<int64_t>(r.embeddings), hash};
}

// The write path timed from outside: the run's batches replayed, in order,
// on a shadow DeltaGraph with one DynamicCandidateSpace and DeltaEnumerator
// per subscription and a shadow DurableStore, the same steps ApplyUpdates
// takes. `batch_ms` are the live run's send-to-return times.
void TraceBatches(const Args& args, const ServeInputs& in,
                  const std::vector<double>& batch_ms, Outcome* out) {
  namespace dyn = daf::dyn;
  dyn::DeltaGraph dg(in.graph);
  dyn::DynamicCandidateSpace::Options cs_options;
  std::vector<std::unique_ptr<dyn::DynamicCandidateSpace>> cs;
  std::vector<std::unique_ptr<dyn::DeltaEnumerator>> enumerators;
  std::vector<std::vector<uint64_t>> classes;
  for (int p : in.subscribed) {
    cs.push_back(std::make_unique<dyn::DynamicCandidateSpace>(
        in.patterns[p], dg, cs_options));
    enumerators.push_back(
        std::make_unique<dyn::DeltaEnumerator>(cs.back()->query(), *cs.back()));
    std::vector<uint64_t> key = daf::CanonicalizeQuery(in.patterns[p]).key;
    if (std::find(classes.begin(), classes.end(), key) == classes.end()) {
      classes.push_back(std::move(key));
    }
  }
  const std::string store_dir = args.workdir + "/serve-rw-shadow-store";
  std::filesystem::remove_all(store_dir);
  std::string error;
  std::unique_ptr<daf::persist::DurableStore> store =
      daf::persist::DurableStore::Open(store_dir, {}, &error);
  if (store == nullptr || !store->InitializeFresh(in.graph, 0, &error)) {
    out->Mismatch("shadow store: " + error);
    return;
  }

  std::vector<double> apply, materialize, maintain, enumerate, append,
      leftover;
  uint64_t rebuilds = 0, embeddings = 0;
  for (size_t j = 0; j < in.batches.size(); ++j) {
    const dyn::UpdateBatch& batch = in.batches[j];
    const Clock::time_point t0 = Clock::now();
    dyn::NormalizedBatch net;
    if (!dg.Normalize(batch, &net, &error)) {
      out->Mismatch("shadow normalize: " + error);
      return;
    }
    const Clock::time_point t1 = Clock::now();
    for (const auto& e : enumerators) {
      embeddings += e->Destroyed(dg, net, {}).embeddings.size();
    }
    const Clock::time_point t2 = Clock::now();
    if (!store->AppendBatch(net, batch.add_vertices, dg.version() + 1,
                            &error)) {
      out->Mismatch("shadow append: " + error);
      return;
    }
    const Clock::time_point t3 = Clock::now();
    if (!dg.ApplyBatch(batch).ok) {
      out->Mismatch("shadow apply failed");
      return;
    }
    const Clock::time_point t4 = Clock::now();
    double maintain_ms = 0, created_ms = 0;
    for (size_t s = 0; s < cs.size(); ++s) {
      const Clock::time_point m0 = Clock::now();
      rebuilds += cs[s]->Apply(dg, net).rebuilt ? 1 : 0;
      const Clock::time_point m1 = Clock::now();
      embeddings += enumerators[s]->Created(dg, net, {}).embeddings.size();
      maintain_ms += Ms(m0, m1);
      created_ms += Ms(m1, Clock::now());
    }
    const Clock::time_point t5 = Clock::now();
    dg.Materialize();
    const Clock::time_point t6 = Clock::now();
    apply.push_back(Ms(t0, t1) + Ms(t3, t4));
    enumerate.push_back(Ms(t1, t2) + created_ms);
    maintain.push_back(maintain_ms);
    append.push_back(Ms(t2, t3));
    materialize.push_back(Ms(t5, t6));
    if (j < batch_ms.size()) {
      leftover.push_back(batch_ms[j] - Ms(t0, t5));
    }
  }
  const daf::persist::PersistStats stats = store->Stats();
  store.reset();
  std::filesystem::remove_all(store_dir);

  uint64_t resyncs = 0;
  for (const Subscriber& sub : in.subscribers) resyncs += sub.resyncs;
  out->Set("batch.p50_ms", Percentile(batch_ms, 0.5));
  out->Set("batch.p99_ms", Percentile(batch_ms, 0.99));
  out->Set("delta_graph.apply_ms", Mean(apply));
  out->Set("delta_graph.materialize_ms", Mean(materialize));
  out->Set("dynamic_cs.maintain_ms", Mean(maintain));
  out->Set("dynamic_cs.rebuilds", static_cast<double>(rebuilds));
  out->Set("delta_enumerate.ms", Mean(enumerate));
  out->Set("delta_enumerate.embeddings", static_cast<double>(embeddings));
  out->Set("subscription.classes", static_cast<double>(classes.size()));
  out->Set("subscription.resyncs", static_cast<double>(resyncs));
  out->Set("wal.append_ms", Mean(append));
  out->Set("wal.bytes_per_batch",
           stats.wal_appended_batches > 0
               ? static_cast<double>(stats.wal_bytes) /
                     static_cast<double>(stats.wal_appended_batches)
               : 0.0);
  out->Set("leftover.batch_ms", Mean(leftover));
}

// One timed phase on the freshly set-up `in`, its oracles and metrics;
// `lag_p99_ms` receives the generator's lag p99.
Outcome MeasureServe(const Args& args, bool with_writes, ServeInputs& in,
                     double setup_s, double* lag_p99_ms) {
  Outcome out;
  service::MatchService& svc = *in.service;

  out.Note("rmat_scale", kGraph.scale);
  out.Note("rmat_edges_requested", static_cast<double>(kGraph.edges));
  out.Note("rmat_seed", static_cast<double>(kGraph.seed));
  out.Note("graph_edges", static_cast<double>(in.graph.NumEdges()));
  out.Note("labels", kGraph.labels);
  out.Note("pool_patterns", kPoolPatterns);
  out.Note("pool_negatives", kPoolNegatives);
  out.Note("pool_zipf", kPoolZipf);
  out.Note("pattern_sizes", std::to_string(kMinPattern) + "-" +
                                std::to_string(kMaxPattern));
  out.Note("rate_per_s", kRate);
  out.Note("fresh_share", kFreshShare);
  out.Note("bypass_share_of_fresh", kBypassShare);
  out.Note("interactive_share", kInteractiveShare);
  out.Note("stream_share", kStreamShare);
  out.Note("interactive_limit", static_cast<double>(kInteractiveLimit));
  out.Note("normal_limit", static_cast<double>(kNormalLimit));
  out.Note("workers", kWorkers);
  out.Note("intra_query_threads", kIntraQueryThreads);
  out.Note("sender_threads", 1);
  out.Note("waiter_threads", kWaiters);
  out.Note("writer_threads", with_writes ? 1 : 0);
  out.Note("service_nice", kServiceNice);
  out.Note("max_lag_p90_ms", kMaxLagP90Ms);
  out.Note("calm_lag_p99_ms", kCalmLagP99Ms);
  out.Note("tail_quantile", kTailQuantile);
  if (with_writes) {
    out.Note("batch_rate_per_s", kBatchRate);
    out.Note("batch_ops", kBatchOps);
    out.Note("subscriptions", kSubscriptions);
    out.Note("subscription_classes", static_cast<double>(in.classes.size()));
    out.Note("subscription_cap", static_cast<double>(kSubscriptionCap));
    out.Note("subscription_vertices", kSubscribedSize);
    out.Note("fsync_policy", "every-batch");
  }

  // serve-rw oracle, part 1 (outside setup and timing): the initial result
  // set of every subscribed pattern at version 0.
  std::vector<std::pair<int64_t, uint64_t>> initial(in.patterns.size());
  {
    daf::MatchContext context;
    std::vector<bool> done(in.patterns.size(), false);
    for (Subscriber& sub : in.subscribers) {
      if (!sub.handle.ok()) {
        out.Mismatch("subscribe rejected: " + sub.handle.error());
        continue;
      }
      if (!done[sub.pattern]) {
        initial[sub.pattern] =
            FullMatch(in.patterns[sub.pattern], in.graph, &context);
        done[sub.pattern] = true;
      }
      sub.count = initial[sub.pattern].first;
      sub.hash = initial[sub.pattern].second;
    }
  }

  daf::obs::ServiceMetricsSnapshot before = svc.Metrics();
  std::vector<JobRecord> records(in.jobs.size());
  std::vector<double> canonical_us;
  std::vector<double> depth_samples;
  std::vector<double> batch_ms(in.batches.size()), batch_lag_ms(
                                                       in.batches.size());
  uint64_t batch_failures = 0;

  // A 1 us timer slack (instead of Linux's 50 us) lets the sender's sleeps
  // end on time; the writer thread inherits it.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  const Clock::time_point t0 =
      Clock::now() + std::chrono::milliseconds(20);
  auto due_at = [&](double offset_ms) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(offset_ms));
  };

  // Writer (serve-rw): fixed-rate batches, timed from the writer's wake-up
  // to return; the deltas are then drained and folded outside the timed
  // interval.
  std::thread writer;
  if (with_writes) {
    writer = std::thread([&] {
      LowerPriority();
      for (size_t j = 0; j < in.batches.size(); ++j) {
        const Clock::time_point due =
            due_at(1000.0 * (static_cast<double>(j) + 0.5) / kBatchRate);
        std::this_thread::sleep_until(due);
        const Clock::time_point woke = Clock::now();
        batch_lag_ms[j] = Ms(due, woke);
        service::UpdateOutcome r = svc.ApplyUpdates(in.batches[j]);
        batch_ms[j] = Ms(woke, Clock::now());
        if (!r.ok) ++batch_failures;
        for (Subscriber& sub : in.subscribers) {
          for (service::DeltaBatch& db : sub.handle.Drain()) {
            if (db.resync) ++sub.resyncs;
            for (const service::EmbeddingDelta& d : db.deltas) {
              const uint64_t h = EmbeddingHash(d.embedding);
              sub.count += d.created ? 1 : -1;
              sub.hash += d.created ? h : 0 - h;
            }
          }
        }
      }
    });
  }

  // Completion waiters: kWaiters threads, each blocked on the oldest
  // in-flight job no other waiter holds (JobHandle::Wait, or NextBatch on a
  // streaming job until its stream ends), so a terminal state is seen when
  // the service signals it and no client thread spins. A job that finishes
  // while every waiter holds an older one is seen when a waiter frees up,
  // which takes more than kWaiters jobs in flight, i.e. a backlog.
  struct Live {
    size_t job = 0;
    service::JobHandle handle;
  };
  std::mutex live_mutex;
  std::condition_variable live_cv;
  std::deque<Live> live;      // guarded by live_mutex
  bool sending_done = false;  // guarded by live_mutex
  auto finish = [&](Live& l) {
    JobRecord& rec = records[l.job];
    const JobSpec& spec = in.jobs[l.job];
    if (spec.kind == Kind::kStream) {
      for (auto batch = l.handle.NextBatch(4096); !batch.empty();
           batch = l.handle.NextBatch(4096)) {
        rec.streamed += batch.size();
      }
    } else {
      l.handle.Wait();
    }
    rec.latency_ms = Ms(rec.start, Clock::now());
    rec.status = l.handle.Status();
    rec.wait_ms = l.handle.wait_ms();
    rec.run_ms = l.handle.run_ms();
    rec.cache = l.handle.cache_outcome();
    rec.embeddings = l.handle.Result().embeddings;
    const daf::obs::SearchProfile& p = l.handle.Profile();
    rec.search_ms = p.search_ms;
    rec.profile_build_ms = p.dag_build_ms + p.cs_build_ms + p.weights_ms;
    rec.parallel = p.threads > 1;
    rec.steal_idle_ms = p.parallel.idle_ms;
    rec.imbalance = p.parallel.call_imbalance;
  };
  std::vector<std::thread> waiters;
  for (uint32_t w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&] {
      for (;;) {
        Live l;
        {
          std::unique_lock<std::mutex> lock(live_mutex);
          live_cv.wait(lock, [&] { return !live.empty() || sending_done; });
          if (live.empty()) return;
          l = std::move(live.front());
          live.pop_front();
        }
        finish(l);
      }
    });
  }

  // Sender (this thread): one sleep per job until it is due, so that the
  // send is as punctual as a wake-up on this host can be.
  Clock::time_point next_depth_sample = t0;
  for (size_t i = 0; i < in.jobs.size(); ++i) {
    JobSpec& spec = in.jobs[i];
    const Clock::time_point due = due_at(spec.offset_ms);
    std::this_thread::sleep_until(due);
    records[i].start = Clock::now();
    // Traced runs canonicalize every other query from outside, so traced
    // and untraced jobs of the same stream give the tracing overhead.
    if (args.trace && i % 2 == 1) {
      const Clock::time_point c0 = Clock::now();
      daf::CanonicalizeQuery(spec.query);
      canonical_us.push_back(Ms(c0, Clock::now()) * 1000.0);
    }
    service::QueryJob job;
    job.query = std::move(spec.query);
    job.limit = LimitOf(spec.kind);
    job.bypass_cache = spec.bypass;
    job.stream_embeddings = spec.kind == Kind::kStream;
    job.priority = spec.kind == Kind::kInteractive
                       ? service::Priority::kInteractive
                       : service::Priority::kNormal;
    service::JobHandle handle = svc.Submit(std::move(job));
    const Clock::time_point sent = Clock::now();
    records[i].lag_ms = Ms(due, sent);
    {
      std::lock_guard<std::mutex> lock(live_mutex);
      live.push_back({i, std::move(handle)});
    }
    live_cv.notify_one();
    if (sent >= next_depth_sample) {
      depth_samples.push_back(static_cast<double>(svc.QueueDepth()));
      next_depth_sample += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(kDepthSampleMs));
    }
  }
  {
    std::lock_guard<std::mutex> lock(live_mutex);
    sending_done = true;
  }
  live_cv.notify_all();
  for (std::thread& waiter : waiters) waiter.join();
  const Clock::time_point reads_done = Clock::now();
  if (writer.joinable()) writer.join();
  daf::obs::ServiceMetricsSnapshot after = svc.Metrics();

  // --- Outcomes and end-to-end metrics.
  std::vector<double> latency, lag, wait, run, gap, hit_run, miss_run;
  uint64_t done = 0;
  for (const JobRecord& r : records) {
    ++out.attempted;
    latency.push_back(r.latency_ms);
    lag.push_back(r.lag_ms);
    if (r.status != service::JobStatus::kDone) {
      ++out.failed;
      continue;
    }
    ++done;
    wait.push_back(r.wait_ms);
    run.push_back(r.run_ms);
    gap.push_back(r.latency_ms - r.wait_ms - r.run_ms);
    if (r.cache == service::CacheOutcome::kHit ||
        r.cache == service::CacheOutcome::kCoalesced) {
      hit_run.push_back(r.run_ms);
    } else if (r.cache == service::CacheOutcome::kMiss) {
      miss_run.push_back(r.run_ms);
    }
  }
  out.attempted += in.batches.size();
  out.failed += batch_failures;
  for (double l : batch_lag_ms) lag.push_back(l);

  const double lag_p90 = Percentile(lag, 0.9);
  const double lag_p99 = Percentile(lag, 0.99);
  *lag_p99_ms = lag_p99;
  if (lag_p90 > kMaxLagP90Ms) {
    out.Overload("generator fell behind: lag p90 " + std::to_string(lag_p90) +
                 " ms exceeds " + std::to_string(kMaxLagP90Ms) + " ms");
  }
  const size_t quarter = depth_samples.size() / 4;
  if (quarter > 0) {
    const std::vector<double> first(depth_samples.begin(),
                                    depth_samples.begin() + quarter);
    const std::vector<double> last(depth_samples.end() - quarter,
                                   depth_samples.end());
    if (Mean(last) - Mean(first) > kMaxBacklogGrowth) {
      out.Overload("admission backlog grew from " +
                   std::to_string(Mean(first)) + " to " +
                   std::to_string(Mean(last)) + " jobs");
    }
  }
  {
    std::string series = "[";
    for (size_t i = 0; i < depth_samples.size(); i += 5) {
      if (i > 0) series += ",";
      series += std::to_string(static_cast<int>(depth_samples[i]));
    }
    out.NoteJson("queue_depth_every_100ms", series + "]");
  }

  // --- Oracles (outside timing).
  daf::MatchContext context;
  if (!with_writes) {
    // Reads on the static graph: every count equals DafMatch pattern by
    // pattern at the job's limit; streamed jobs delivered exactly that many.
    std::vector<std::pair<int64_t, int64_t>> expected(
        in.patterns.size(), {-1, -1});  // (limit 100, limit 1000)
    for (size_t i = 0; i < records.size(); ++i) {
      const JobRecord& r = records[i];
      if (r.status != service::JobStatus::kDone) continue;
      const JobSpec& spec = in.jobs[i];
      int64_t& want = spec.kind == Kind::kInteractive
                          ? expected[spec.pattern].first
                          : expected[spec.pattern].second;
      if (want < 0) {
        daf::MatchOptions mo;
        mo.limit = LimitOf(spec.kind);
        want = static_cast<int64_t>(
            daf::DafMatch(in.patterns[spec.pattern], in.graph, mo, &context)
                .embeddings);
      }
      if (static_cast<int64_t>(r.embeddings) != want ||
          (spec.kind == Kind::kStream && r.streamed != r.embeddings)) {
        out.Mismatch("read job " + std::to_string(i) + " counted " +
                     std::to_string(r.embeddings) + " (streamed " +
                     std::to_string(r.streamed) + "), DafMatch says " +
                     std::to_string(want));
      }
    }
  } else {
    for (size_t i = 0; i < records.size(); ++i) {
      const JobRecord& r = records[i];
      if (r.status == service::JobStatus::kDone &&
          in.jobs[i].kind == Kind::kStream && r.streamed != r.embeddings) {
        out.Mismatch("stream job " + std::to_string(i) + " delivered " +
                     std::to_string(r.streamed) + " of " +
                     std::to_string(r.embeddings));
      }
    }
    // Folded subscription deltas equal a from-scratch match at the end.
    std::shared_ptr<const daf::Graph> final_graph = svc.Snapshot();
    std::vector<std::pair<int64_t, uint64_t>> final_sets(in.patterns.size());
    std::vector<bool> computed(in.patterns.size(), false);
    for (const Subscriber& sub : in.subscribers) {
      if (!computed[sub.pattern]) {
        final_sets[sub.pattern] =
            FullMatch(in.patterns[sub.pattern], *final_graph, &context);
        computed[sub.pattern] = true;
      }
      if (sub.resyncs > 0 || sub.count != final_sets[sub.pattern].first ||
          sub.hash != final_sets[sub.pattern].second) {
        out.Mismatch("subscription on pattern " + std::to_string(sub.pattern) +
                     " folded " + std::to_string(sub.count) +
                     " embeddings (" + std::to_string(sub.resyncs) +
                     " resyncs), from-scratch match has " +
                     std::to_string(final_sets[sub.pattern].first));
      }
    }
    out.Note("final_version", static_cast<double>(svc.GraphVersion()));
  }

  const double elapsed_s = Ms(t0, reads_done) / 1000.0;
  out.Note("jobs", static_cast<double>(in.jobs.size()));
  out.Note("batches", static_cast<double>(in.batches.size()));
  out.Note("lag_p90_ms", lag_p90);
  out.Note("lag_p99_ms", lag_p99);
  out.Note("queue_depth_max",
           depth_samples.empty()
               ? 0.0
               : *std::max_element(depth_samples.begin(), depth_samples.end()));
  if (!args.trace) {
    out.Set("setup_s", setup_s);
    out.Set("peak_rss_mb", PeakRssMb());
    out.Set("ops_per_s", static_cast<double>(done) / elapsed_s);
    out.Set("latency_p50_ms", Percentile(latency, 0.5));
    out.Set("latency_tail_ms", Percentile(latency, kTailQuantile));
    out.NoteJson("read_quantiles_ms", QuantilesJson(latency));
    // The same reads timed from their due times, wake-up lateness included.
    std::vector<double> from_due;
    for (size_t i = 0; i < records.size(); ++i) {
      from_due.push_back(records[i].latency_ms +
                         Ms(due_at(in.jobs[i].offset_ms), records[i].start));
    }
    out.NoteJson("read_from_due_quantiles_ms", QuantilesJson(from_due));
    out.Report("read_p50_ms", Percentile(latency, 0.5), "ms");
    out.Report("read_p90_ms", Percentile(latency, 0.9), "ms");
    out.Report("read_p99_ms", Percentile(latency, 0.99), "ms");
    if (with_writes) {
      out.Report("batch_p50_ms", Percentile(batch_ms, 0.5), "ms");
      out.Report("batch_p99_ms", Percentile(batch_ms, 0.99), "ms");
    }
    return out;
  }

  // --- Traced run: live counters the program exports ...
  out.Set("admission_queue.wait_p50_ms", Percentile(wait, 0.5));
  out.Set("admission_queue.wait_p99_ms", Percentile(wait, 0.99));
  out.Set("admission_queue.depth_max",
          depth_samples.empty()
              ? 0.0
              : *std::max_element(depth_samples.begin(), depth_samples.end()));
  out.Set("match_service.run_p50_ms", Percentile(run, 0.5));
  out.Set("match_service.run_p99_ms", Percentile(run, 0.99));
  out.Set("match_service.gap_p50_ms", Percentile(gap, 0.5));
  out.Set("match_service.gap_p99_ms", Percentile(gap, 0.99));
  const double lookups =
      static_cast<double>(after.cache_lookups - before.cache_lookups);
  out.Set("query_cache.lookups", lookups);
  out.Set("query_cache.hit_rate",
          lookups > 0 ? static_cast<double>(after.cache_hits -
                                            before.cache_hits) /
                            lookups
                      : 0.0);
  out.Set("query_cache.hit_run_p50_ms", Percentile(hit_run, 0.5));
  out.Set("query_cache.miss_run_p50_ms", Percentile(miss_run, 0.5));
  out.Set("canonical.p50_us", Percentile(canonical_us, 0.5));
  std::vector<double> idle, imbalance;
  for (const JobRecord& r : records) {
    if (!r.parallel) continue;
    idle.push_back(r.steal_idle_ms);
    imbalance.push_back(r.imbalance);
  }
  out.Set("steal.idle_ms", Mean(idle));
  out.Set("steal.imbalance", Mean(imbalance));
  out.Set("bench.lag_p99_ms", lag_p99);
  std::vector<double> traced_latency, untraced_latency;
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].status != service::JobStatus::kDone) continue;
    (i % 2 == 1 ? traced_latency : untraced_latency)
        .push_back(records[i].latency_ms);
  }
  SetTraceOverhead(traced_latency, untraced_latency, &out);

  // ... and the DAF layers timed from outside: every distinct (pattern,
  // limit) of the run replayed once through the public layer calls on the
  // initial graph. Counts are exact; build times are charged to the jobs
  // that built (cache misses and cache-bypassing jobs), search time comes
  // from each job's own profile.
  std::vector<LayerSample> replay[2];  // [interactive limit, normal limit]
  replay[0].resize(in.patterns.size());
  replay[1].resize(in.patterns.size());
  std::vector<bool> replayed[2] = {
      std::vector<bool>(in.patterns.size(), false),
      std::vector<bool>(in.patterns.size(), false)};
  LayerSample totals;
  double dag_sum = 0, cs_sum = 0, weights_sum = 0, search_sum = 0;
  std::vector<double> leftover;
  for (size_t i = 0; i < records.size(); ++i) {
    const JobSpec& spec = in.jobs[i];
    const int which = spec.kind == Kind::kInteractive ? 0 : 1;
    if (!replayed[which][spec.pattern]) {
      LayerSample s = TracedMatch(in.patterns[spec.pattern], in.graph,
                                  LimitOf(spec.kind), /*profile=*/true,
                                  &context);
      totals.AddCounts(s);
      replay[which][spec.pattern] = std::move(s);
      replayed[which][spec.pattern] = true;
    }
    const JobRecord& r = records[i];
    if (r.status != service::JobStatus::kDone) continue;
    const LayerSample& s = replay[which][spec.pattern];
    double build_ms = 0;
    if (r.cache == service::CacheOutcome::kMiss ||
        r.cache == service::CacheOutcome::kNone) {
      // Cache misses build inside the cache lookup, which no profile
      // covers, so they are charged the replay's times. Cold (bypassing)
      // jobs profile their own build, split across the layers in the
      // replay's proportions.
      const double scale =
          r.cache == service::CacheOutcome::kNone
              ? r.profile_build_ms / std::max(s.BuildMs(), 1e-9)
              : 1.0;
      dag_sum += scale * s.dag_ms;
      cs_sum += scale * s.cs_ms;
      weights_sum += scale * s.weights_ms;
      build_ms = scale * s.BuildMs();
    }
    search_sum += r.search_ms;
    leftover.push_back(r.latency_ms - r.wait_ms - build_ms - r.search_ms);
  }
  const double jobs_done = std::max<double>(1.0, static_cast<double>(done));
  out.Set("query_dag.ms", dag_sum / jobs_done);
  out.Set("candidate_space.ms", cs_sum / jobs_done);
  out.Set("weights.ms", weights_sum / jobs_done);
  out.Set("backtrack.ms", search_sum / jobs_done);
  SetSearchCounts(totals, &out);
  out.Set("leftover.job_ms", Mean(leftover));

  if (with_writes) {
    TraceBatches(args, in, batch_ms, &out);
  }
  return out;
}

}  // namespace

Outcome RunServe(const Args& args, bool with_writes) {
  ServeInputs in;
  int repetition = 0;
  auto teardown = [&] {
    in.service.reset();
    if (!in.store_dir.empty()) std::filesystem::remove_all(in.store_dir);
  };
  const double setup_s = MedianSetupSeconds(
      5, [&] { in = MakeInputs(args, with_writes, repetition++); }, teardown);
  // A measurement the overload guard rejects (the generator fell behind
  // its schedule, or a backlog grew) or one taken while the host woke
  // threads late is taken again on freshly set-up inputs, at most kAttempts
  // times in all. The run reports the calmest valid measurement, and fails
  // when none is valid.
  Outcome reported;
  double reported_lag = 0;
  bool valid = false;
  uint32_t attempt = 1;
  for (;; ++attempt) {
    double lag_p99 = 0;
    Outcome out = MeasureServe(args, with_writes, in, setup_s, &lag_p99);
    if (out.mismatched) return out;
    if (!valid || (!out.overloaded && lag_p99 < reported_lag)) {
      valid = !out.overloaded;
      reported = std::move(out);
      reported_lag = lag_p99;
    }
    if ((valid && reported_lag <= kCalmLagP99Ms) || attempt == kAttempts) {
      break;
    }
    std::fprintf(stderr,
                 "perfbench: measuring again (attempt %u of %u; lag p99 "
                 "%.3f ms)\n",
                 attempt + 1, kAttempts, lag_p99);
    teardown();
    in = MakeInputs(args, with_writes, repetition++);
  }
  reported.Note("attempts", attempt);
  return reported;
}

}  // namespace perfbench
