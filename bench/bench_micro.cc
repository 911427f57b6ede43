// Micro-benchmarks (google-benchmark) of the core primitives: graph
// accessors, DAG construction, CS construction (DAG-graph DP), weight-array
// DP, vertex-equivalence computation, and the backtracking throughput.
// The *Warm variants run through a reused MatchContext (arena + scratch),
// measuring the steady-state path long-lived callers hit; the plain
// variants pay cold per-call allocation. `--smoke` runs every benchmark for
// a token duration (CI: "does every benchmark still run?").
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "daf/boost.h"
#include "graph/io.h"
#include "obs/json.h"
#include "daf/candidate_space.h"
#include "daf/engine.h"
#include "daf/match_context.h"
#include "daf/query_dag.h"
#include "daf/weights.h"
#include "graph/query_extract.h"
#include "persist/snapshot.h"
#include "util/intersect.h"
#include "util/stop.h"
#include "util/timer.h"
#include "workload/datasets.h"
#include "workload/querygen.h"

namespace daf::bench {
namespace {

const Graph& YeastData() {
  static const Graph* data = new Graph(
      workload::MakeDataset(workload::DatasetId::kYeast, 0.5, 1));
  return *data;
}

const Graph& YeastQuery(uint32_t size) {
  static std::map<uint32_t, Graph>* cache = new std::map<uint32_t, Graph>();
  auto it = cache->find(size);
  if (it == cache->end()) {
    Rng rng(42 + size);
    auto extracted = ExtractRandomWalkQuery(YeastData(), size, -1.0, rng);
    it = cache->emplace(size, extracted->query).first;
  }
  return it->second;
}

void BM_HasEdge(benchmark::State& state) {
  const Graph& g = YeastData();
  Rng rng(7);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (int i = 0; i < 1024; ++i) {
    pairs.emplace_back(static_cast<VertexId>(rng.UniformInt(g.NumVertices())),
                       static_cast<VertexId>(rng.UniformInt(g.NumVertices())));
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [u, v] = pairs[i++ & 1023];
    benchmark::DoNotOptimize(g.HasEdge(u, v));
  }
}
BENCHMARK(BM_HasEdge);

void BM_NeighborsWithLabel(benchmark::State& state) {
  const Graph& g = YeastData();
  Rng rng(8);
  size_t i = 0;
  std::vector<std::pair<VertexId, Label>> probes;
  for (int k = 0; k < 1024; ++k) {
    probes.emplace_back(static_cast<VertexId>(rng.UniformInt(g.NumVertices())),
                        static_cast<Label>(rng.UniformInt(g.NumLabels())));
  }
  for (auto _ : state) {
    const auto& [v, l] = probes[i++ & 1023];
    benchmark::DoNotOptimize(g.NeighborsWithLabel(v, l).size());
  }
}
BENCHMARK(BM_NeighborsWithLabel);

void BM_BuildQueryDag(benchmark::State& state) {
  const Graph& data = YeastData();
  const Graph& query = YeastQuery(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    QueryDag dag = QueryDag::Build(query, data);
    benchmark::DoNotOptimize(dag.root());
  }
}
BENCHMARK(BM_BuildQueryDag)->Arg(20)->Arg(50)->Arg(100);

void BM_BuildCandidateSpace(benchmark::State& state) {
  const Graph& data = YeastData();
  const Graph& query = YeastQuery(static_cast<uint32_t>(state.range(0)));
  QueryDag dag = QueryDag::Build(query, data);
  for (auto _ : state) {
    CandidateSpace cs = CandidateSpace::Build(query, dag, data);
    benchmark::DoNotOptimize(cs.TotalCandidates());
  }
}
BENCHMARK(BM_BuildCandidateSpace)->Arg(20)->Arg(50)->Arg(100);

void BM_BuildCandidateSpaceWarm(benchmark::State& state) {
  const Graph& data = YeastData();
  const Graph& query = YeastQuery(static_cast<uint32_t>(state.range(0)));
  QueryDag dag = QueryDag::Build(query, data);
  MatchContext context;
  for (auto _ : state) {
    context.arena().Reset();
    CandidateSpace cs = CandidateSpace::Build(
        query, dag, data, {}, &context.arena(), &context.cs_scratch());
    benchmark::DoNotOptimize(cs.TotalCandidates());
  }
  state.counters["arena_kb"] = benchmark::Counter(
      static_cast<double>(context.arena_stats().capacity_bytes) / 1024.0);
}
BENCHMARK(BM_BuildCandidateSpaceWarm)->Arg(20)->Arg(50)->Arg(100);

void BM_WeightArray(benchmark::State& state) {
  const Graph& data = YeastData();
  const Graph& query = YeastQuery(static_cast<uint32_t>(state.range(0)));
  QueryDag dag = QueryDag::Build(query, data);
  CandidateSpace cs = CandidateSpace::Build(query, dag, data);
  for (auto _ : state) {
    WeightArray w = WeightArray::Compute(dag, cs);
    benchmark::DoNotOptimize(w.Weight(dag.root(), 0));
  }
}
BENCHMARK(BM_WeightArray)->Arg(20)->Arg(50)->Arg(100);

void BM_WeightArrayWarm(benchmark::State& state) {
  const Graph& data = YeastData();
  const Graph& query = YeastQuery(static_cast<uint32_t>(state.range(0)));
  QueryDag dag = QueryDag::Build(query, data);
  CandidateSpace cs = CandidateSpace::Build(query, dag, data);
  Arena arena;  // reset per iteration: the weight array alone cycles in it
  for (auto _ : state) {
    arena.Reset();
    WeightArray w = WeightArray::Compute(dag, cs, &arena);
    benchmark::DoNotOptimize(w.Weight(dag.root(), 0));
  }
}
BENCHMARK(BM_WeightArrayWarm)->Arg(20)->Arg(50)->Arg(100);

void BM_DafMatchFirst1000(benchmark::State& state) {
  const Graph& data = YeastData();
  const Graph& query = YeastQuery(static_cast<uint32_t>(state.range(0)));
  MatchOptions opts;
  opts.limit = 1000;
  uint64_t embeddings = 0;
  for (auto _ : state) {
    MatchResult r = DafMatch(query, data, opts);
    embeddings += r.embeddings;
    benchmark::DoNotOptimize(r.recursive_calls);
  }
  state.counters["embeddings/iter"] =
      benchmark::Counter(static_cast<double>(embeddings),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DafMatchFirst1000)->Arg(20)->Arg(50);

void BM_DafMatchFirst1000Warm(benchmark::State& state) {
  const Graph& data = YeastData();
  const Graph& query = YeastQuery(static_cast<uint32_t>(state.range(0)));
  MatchOptions opts;
  opts.limit = 1000;
  MatchContext context;
  uint64_t embeddings = 0;
  for (auto _ : state) {
    MatchResult r = DafMatch(query, data, opts, &context);
    embeddings += r.embeddings;
    benchmark::DoNotOptimize(r.recursive_calls);
  }
  state.counters["embeddings/iter"] =
      benchmark::Counter(static_cast<double>(embeddings),
                         benchmark::Counter::kAvgIterations);
  state.counters["arena_kb"] = benchmark::Counter(
      static_cast<double>(context.arena_stats().capacity_bytes) / 1024.0);
}
BENCHMARK(BM_DafMatchFirst1000Warm)->Arg(20)->Arg(50);

void BM_DafMatchStopConditionArmed(benchmark::State& state) {
  // Same workload as BM_DafMatchFirst1000Warm but with an armed (never
  // firing) CancelToken + deadline: compares against the Warm variant to
  // put a number on the StopCondition poll folded into the search loop's
  // every-4096-calls cadence. Expected to be within noise.
  const Graph& data = YeastData();
  const Graph& query = YeastQuery(static_cast<uint32_t>(state.range(0)));
  CancelToken cancel;
  MatchOptions opts;
  opts.limit = 1000;
  opts.time_limit_ms = 600000;
  opts.cancel = &cancel;
  MatchContext context;
  uint64_t embeddings = 0;
  for (auto _ : state) {
    MatchResult r = DafMatch(query, data, opts, &context);
    embeddings += r.embeddings;
    benchmark::DoNotOptimize(r.recursive_calls);
  }
  state.counters["embeddings/iter"] =
      benchmark::Counter(static_cast<double>(embeddings),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DafMatchStopConditionArmed)->Arg(20)->Arg(50);

void BM_StopConditionCheck(benchmark::State& state) {
  // The raw cost of one StopCondition::Check (atomic load + clock read),
  // i.e. what each 4096-call poll window pays.
  CancelToken cancel;
  Deadline deadline(600000);
  StopCondition stop(&deadline, &cancel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stop.Check());
  }
}
BENCHMARK(BM_StopConditionCheck);

// Sorted-set intersection kernels — the inner loop of
// ComputeExtendableCandidates (Definition 5.2). Args are {small side size,
// large/small ratio}; IntersectSorted switches from the merge scan to
// galloping (branchless binary probes into the long side) past a 32x ratio,
// which is exactly the skewed shape CS adjacency lists produce when one
// parent is much more selective than the other.
std::pair<std::vector<uint32_t>, std::vector<uint32_t>> IntersectInput(
    size_t small_n, size_t ratio) {
  Rng rng(1234 + small_n * 31 + ratio);
  const uint64_t universe = static_cast<uint64_t>(small_n) * ratio * 2 + 1;
  auto make_sorted = [&](size_t n) {
    std::vector<uint32_t> v;
    v.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      v.push_back(static_cast<uint32_t>(rng.UniformInt(universe)));
    }
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
  };
  return {make_sorted(small_n), make_sorted(small_n * ratio)};
}

void BM_IntersectMergeScan(benchmark::State& state) {
  auto [small, large] = IntersectInput(static_cast<size_t>(state.range(0)),
                                       static_cast<size_t>(state.range(1)));
  std::vector<uint32_t> out;
  out.reserve(small.size());
  for (auto _ : state) {
    out.clear();
    std::set_intersection(small.begin(), small.end(), large.begin(),
                          large.end(), std::back_inserter(out));
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_IntersectMergeScan)
    ->Args({256, 1})
    ->Args({256, 8})
    ->Args({256, 32})
    ->Args({256, 128})
    ->Args({64, 1024});

void BM_IntersectSorted(benchmark::State& state) {
  auto [small, large] = IntersectInput(static_cast<size_t>(state.range(0)),
                                       static_cast<size_t>(state.range(1)));
  std::vector<uint32_t> out;
  out.reserve(small.size());
  for (auto _ : state) {
    IntersectSorted(small.data(), small.size(), large.data(), large.size(),
                    &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_IntersectSorted)
    ->Args({256, 1})
    ->Args({256, 8})
    ->Args({256, 32})
    ->Args({256, 128})
    ->Args({64, 1024});

void BM_VertexEquivalence(benchmark::State& state) {
  const Graph& data = YeastData();
  for (auto _ : state) {
    VertexEquivalence eq = VertexEquivalence::Compute(data);
    benchmark::DoNotOptimize(eq.NumClasses());
  }
}
BENCHMARK(BM_VertexEquivalence);

void BM_LoadGraphText(benchmark::State& state) {
  const Graph& data = YeastData();
  const std::string path = "/tmp/daf_bench_graph.txt";
  std::string error;
  SaveGraph(data, path, &error);
  for (auto _ : state) {
    auto g = LoadGraph(path, &error);
    benchmark::DoNotOptimize(g->NumEdges());
  }
}
BENCHMARK(BM_LoadGraphText);

void BM_LoadGraphSnapshot(benchmark::State& state) {
  const Graph& data = YeastData();
  const std::string path = "/tmp/daf_bench_graph.dafs";
  std::string error;
  persist::WriteSnapshot(data, 0, path, &error);
  for (auto _ : state) {
    auto g = persist::LoadSnapshot(path, nullptr, &error);
    benchmark::DoNotOptimize(g->NumEdges());
  }
}
BENCHMARK(BM_LoadGraphSnapshot);

}  // namespace

// ---------------------------------------------------------------------------
// Intersection kernel matrix: every kernel (merge, gallop, SSE, AVX2,
// bitmap, dispatch) timed over a (size-ratio x density) grid, written to
// BENCH_micro.json. In --smoke mode the matrix doubles as a perf gate: the
// best SIMD kernel must not lose to the scalar merge on the dense
// comparable-size shape, and the dispatcher must stay within generous slack
// of the best hand-picked kernel everywhere (i.e. its heuristics never pick
// a disastrous kernel).
// ---------------------------------------------------------------------------

// `n` sorted unique values spread over [0, universe) with average gap
// universe/n — density is n/universe by construction (the list may come up
// a few elements short when the random gaps overshoot; actual sizes are
// what get reported).
std::vector<uint32_t> DensityControlledList(Rng& rng, size_t n,
                                            uint64_t universe) {
  std::vector<uint32_t> v;
  v.reserve(n);
  const uint64_t step = std::max<uint64_t>(1, universe / n);
  uint64_t value = rng.UniformInt(step);
  while (v.size() < n && value < universe) {
    v.push_back(static_cast<uint32_t>(value));
    value += 1 + rng.UniformInt(std::max<uint64_t>(1, 2 * step - 1));
  }
  return v;
}

// Runs `f` (returning a checksum) in timed batches of at least `min_ms`
// wall time and reports nanoseconds per call. Takes the fastest of three
// batches: on a shared core a preempted batch reads several times slower
// than the true cost, and the minimum filters those spikes where a mean
// would absorb them (the gate compares cells, so spikes mean flakes).
template <typename F>
double NsPerOp(F&& f, double min_ms) {
  f();  // warm caches and page in the inputs
  auto timed_ms = [&](size_t iters) {
    const auto t0 = std::chrono::steady_clock::now();
    size_t sink = 0;
    for (size_t i = 0; i < iters; ++i) sink += f();
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(sink);
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };
  size_t iters = 1;
  double ms = timed_ms(iters);
  while (ms < min_ms && iters < (size_t{1} << 24)) {
    iters *= 4;
    ms = timed_ms(iters);
  }
  for (int rep = 0; rep < 2; ++rep) ms = std::min(ms, timed_ms(iters));
  return ms * 1e6 / static_cast<double>(iters);
}

int RunKernelMatrix(bool smoke) {
  // Smoke windows are short but not token: the gate compares timings, so
  // each cell needs enough wall time to ride out scheduler noise on a
  // shared CI core.
  const double min_ms = smoke ? 2.0 : 20.0;
  struct Shape {
    size_t small_n;
    size_t ratio;             // large_n = small_n * ratio
    uint32_t density_permille;  // large-side density over the universe
  };
  const Shape shapes[] = {
      {256, 1, 20},  {256, 1, 200},  {256, 1, 500},
      {256, 4, 20},  {256, 4, 200},  {256, 4, 500},
      {256, 32, 20}, {256, 32, 200}, {256, 32, 500},
      {64, 256, 20}, {64, 256, 200}, {64, 256, 500},
  };
  const SimdLevel level = DetectedSimdLevel();
  const char* level_name = level == SimdLevel::kAvx2  ? "avx2"
                           : level == SimdLevel::kSse ? "sse"
                                                      : "none";

  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("micro_intersect_kernels");
  w.Key("simd_level").String(level_name);
  w.Key("smoke").Bool(smoke);
  w.Key("rows").BeginArray();

  bool gate_ok = true;
  std::string gate_log;
  double dense_eq_merge_ns = -1.0;
  double dense_eq_simd_ns = -1.0;

  for (const Shape& shape : shapes) {
    const size_t large_n = shape.small_n * shape.ratio;
    const uint64_t universe = std::max<uint64_t>(
        large_n + 1, large_n * 1000 / shape.density_permille);
    Rng rng(9000 + shape.small_n * 131 + shape.ratio * 7 +
            shape.density_permille);
    const std::vector<uint32_t> small =
        DensityControlledList(rng, shape.small_n, universe);
    const std::vector<uint32_t> large =
        DensityControlledList(rng, large_n, universe);
    const size_t na = small.size(), nb = large.size();
    std::vector<uint32_t> out(std::min(na, nb) + kIntersectOutPad);
    BitmapScratch bitmap_scratch;
    const uint32_t* lists[2] = {small.data(), large.data()};
    const size_t sizes[2] = {na, nb};

    struct Timing {
      const char* kernel;
      double ns;
    };
    std::vector<Timing> timings;
    timings.push_back({"merge", NsPerOp(
        [&] { return IntersectMergeKernel(small.data(), na, large.data(), nb,
                                          out.data()); },
        min_ms)});
    timings.push_back({"gallop", NsPerOp(
        [&] { return IntersectGallopKernel(small.data(), na, large.data(), nb,
                                           out.data()); },
        min_ms)});
    if (intersect_internal::CpuSupportsSse()) {
      timings.push_back({"sse", NsPerOp(
          [&] {
            return intersect_internal::IntersectSseKernel(
                small.data(), na, large.data(), nb, out.data());
          },
          min_ms)});
    }
    if (intersect_internal::CpuSupportsAvx2()) {
      timings.push_back({"avx2", NsPerOp(
          [&] {
            return intersect_internal::IntersectAvx2Kernel(
                small.data(), na, large.data(), nb, out.data());
          },
          min_ms)});
    }
    timings.push_back({"bitmap", NsPerOp(
        [&] {
          return IntersectBitmapKernel(lists, sizes, 2,
                                       static_cast<uint32_t>(universe),
                                       &bitmap_scratch, out.data());
        },
        min_ms)});
    timings.push_back({"dispatch", NsPerOp(
        [&] {
          return IntersectDispatch(small.data(), na, large.data(), nb,
                                   out.data());
        },
        min_ms)});

    double merge_ns = 0, gallop_ns = 0, dispatch_ns = 0;
    double best_simd_ns = -1.0;
    for (const Timing& t : timings) {
      w.BeginObject();
      w.Key("kernel").String(t.kernel);
      w.Key("small_n").Uint(na);
      w.Key("large_n").Uint(nb);
      w.Key("ratio").Uint(shape.ratio);
      w.Key("density_permille").Uint(shape.density_permille);
      w.Key("universe").Uint(universe);
      w.Key("ns_per_op").Double(t.ns);
      w.EndObject();
      const std::string_view name = t.kernel;
      if (name == "merge") merge_ns = t.ns;
      if (name == "gallop") gallop_ns = t.ns;
      if (name == "dispatch") dispatch_ns = t.ns;
      if (name == "sse" || name == "avx2") {
        if (best_simd_ns < 0 || t.ns < best_simd_ns) best_simd_ns = t.ns;
      }
    }

    // Gate 1 input: the dense comparable-size shape the SIMD kernels exist
    // for (the dense-CS-segment regime of ComputeExtendableCandidates).
    // Re-measured like the parity gate when the first reading looks like a
    // loss — only a reproducible loss should fail CI.
    if (shape.ratio == 1 && shape.density_permille == 500) {
      for (int attempt = 0;
           attempt < 2 && level == SimdLevel::kAvx2 && best_simd_ns >= 0 &&
           best_simd_ns > merge_ns * 1.05;
           ++attempt) {
        merge_ns = NsPerOp(
            [&] {
              return IntersectMergeKernel(small.data(), na, large.data(), nb,
                                          out.data());
            },
            min_ms);
        best_simd_ns = NsPerOp(
            [&] {
              return intersect_internal::IntersectAvx2Kernel(
                  small.data(), na, large.data(), nb, out.data());
            },
            min_ms);
      }
      dense_eq_merge_ns = merge_ns;
      dense_eq_simd_ns = best_simd_ns;
    }
    // Gate 2: the dispatcher must track the best baseline kernel within
    // generous slack on every shape (timing noise plus a flat floor for
    // the dispatch branch itself).
    // 1.75x: wide enough for boundary shapes (at exactly kGallopRatio the
    // dispatcher legitimately picks merge while standalone gallop edges it
    // out) plus shared-runner noise; a wrong-regime pick shows up as 3-10x.
    // A failing shape is re-measured before it fails the gate: one long
    // preemption on a shared core can poison a whole cell, and only a
    // *reproducible* loss is a regression.
    auto parity_holds = [&] {
      return dispatch_ns <= std::min(merge_ns, gallop_ns) * 1.75 + 200.0;
    };
    for (int attempt = 0; attempt < 2 && !parity_holds(); ++attempt) {
      merge_ns = NsPerOp(
          [&] {
            return IntersectMergeKernel(small.data(), na, large.data(), nb,
                                        out.data());
          },
          min_ms);
      gallop_ns = NsPerOp(
          [&] {
            return IntersectGallopKernel(small.data(), na, large.data(), nb,
                                         out.data());
          },
          min_ms);
      dispatch_ns = NsPerOp(
          [&] {
            return IntersectDispatch(small.data(), na, large.data(), nb,
                                     out.data());
          },
          min_ms);
    }
    if (!parity_holds()) {
      gate_ok = false;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "dispatch %.0fns vs best baseline %.0fns at "
                    "ratio=%zu density=%u; ",
                    dispatch_ns, std::min(merge_ns, gallop_ns), shape.ratio,
                    shape.density_permille);
      gate_log += buf;
    }
  }
  w.EndArray();

  // Gate 1: on the dense comparable-size shape the SIMD kernel must at
  // least match the scalar merge (the full-mode runs show the real margin;
  // the smoke gate only catches a kernel that silently became a loss).
  // Gated at the AVX2 tier only: the 128-bit SSE path is an out-of-line
  // fallback whose margin over the inlined merge is CPU-dependent.
  const bool simd_gate_applicable =
      level == SimdLevel::kAvx2 && dense_eq_simd_ns >= 0;
  if (simd_gate_applicable &&
      dense_eq_simd_ns > dense_eq_merge_ns * 1.05) {
    gate_ok = false;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "simd %.0fns slower than merge %.0fns on dense "
                  "comparable-size shape; ",
                  dense_eq_simd_ns, dense_eq_merge_ns);
    gate_log += buf;
  }
  w.Key("gate").BeginObject();
  w.Key("checked").Bool(smoke);
  w.Key("simd_gate_applicable").Bool(simd_gate_applicable);
  if (simd_gate_applicable) {
    w.Key("dense_eq_simd_speedup")
        .Double(dense_eq_merge_ns / dense_eq_simd_ns);
  }
  w.Key("ok").Bool(gate_ok);
  if (!gate_ok) w.Key("log").String(gate_log);
  w.EndObject();
  w.EndObject();

  std::ofstream file("BENCH_micro.json");
  file << w.str() << "\n";
  file.close();
  std::fprintf(stderr, "kernel matrix written to BENCH_micro.json (simd=%s)\n",
               level_name);
  if (simd_gate_applicable) {
    std::fprintf(stderr, "dense comparable-size: simd %.0fns vs merge %.0fns "
                 "(%.2fx)\n",
                 dense_eq_simd_ns, dense_eq_merge_ns,
                 dense_eq_merge_ns / dense_eq_simd_ns);
  }
  if (smoke && !gate_ok) {
    std::fprintf(stderr, "kernel matrix gate FAILED: %s\n", gate_log.c_str());
    return 1;
  }
  return 0;
}

}  // namespace daf::bench

// Like BENCHMARK_MAIN(), plus a `--smoke` flag: run every benchmark for a
// token duration so CI can verify the whole suite still executes without
// paying for stable timings.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool smoke = false;
  for (auto it = args.begin(); it != args.end();) {
    if (std::string_view(*it) == "--smoke") {
      smoke = true;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  static char min_time_flag[] = "--benchmark_min_time=0.001";
  if (smoke) args.push_back(min_time_flag);
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(effective_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // The kernel matrix runs after the registered benchmarks: it emits
  // BENCH_micro.json and, under --smoke, enforces the SIMD/dispatch perf
  // gates (nonzero exit on failure).
  return daf::bench::RunKernelMatrix(smoke);
}
