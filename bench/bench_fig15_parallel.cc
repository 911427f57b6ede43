// Regenerates Figure 15 (Appendix A.4): elapsed time of the parallelized
// DAF for 1, 2, 4, 8, 16 threads when finding k = 10^5 embeddings on
// Human, comparing the paper's root-cursor partitioning against the
// work-stealing engine (splittable subtree tasks). NOTE: on a single-core
// host the wall-clock gains cannot materialize; the harness therefore also
// prints the per-thread recursive-call split and the load-imbalance metric
// max/mean (1.00 = perfect balance, `threads` = one worker did everything)
// so the work distribution — the mechanism behind the paper's speedups —
// is still observable. See EXPERIMENTS.md, substitution 4.
#include <cstdio>

#include "bench_util.h"
#include "daf/parallel.h"

namespace daf::bench {
namespace {

int Run(int argc, char** argv) {
  FlagSet flags;
  CommonFlags common(flags);
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    flags.PrintUsage(argv[0]);
    return 1;
  }
  Graph data = BuildDataset(workload::DatasetId::kHuman, common);
  const workload::DatasetSpec& spec =
      workload::GetSpec(workload::DatasetId::kHuman);
  Rng rng(static_cast<uint64_t>(common.seed) * 88001);
  std::printf("== Figure 15: parallel DAF, k=%lld embeddings (Human) ==\n",
              static_cast<long long>(common.k));
  std::printf("%-8s%-7s%-9s%12s%14s%10s%11s%22s\n", "Set", "strat", "threads",
              "avg_ms", "rec_calls", "solved%", "max/mean",
              "thread_call_balance");
  for (int si = 0; si < 2; ++si) {
    uint32_t size = spec.query_sizes[si];
    for (bool sparse : {true, false}) {
      workload::QuerySet set = workload::MakeQuerySet(
          data, size, sparse, static_cast<uint32_t>(common.queries), rng);
      if (set.queries.empty()) continue;
      for (ParallelStrategy strategy :
           {ParallelStrategy::kRootCursor, ParallelStrategy::kWorkStealing}) {
        const char* strat_name =
            strategy == ParallelStrategy::kWorkStealing ? "steal" : "cursor";
        for (uint32_t threads : {1u, 2u, 4u, 8u, 16u}) {
          double total_ms = 0;
          uint64_t total_calls = 0;
          int solved = 0;
          double imbalance_sum = 0;
          uint64_t max_thread_calls = 0;
          uint64_t min_thread_calls = ~0ull;
          for (const Graph& q : set.queries) {
            MatchOptions opts;
            opts.limit = static_cast<uint64_t>(common.k);
            opts.time_limit_ms = static_cast<uint64_t>(common.timeout_ms);
            opts.parallel_strategy = strategy;
            ParallelMatchResult r = ParallelDafMatch(q, data, opts, threads);
            if (!r.ok || r.timed_out) continue;
            FillOneWorkerSplit(&r);
            ++solved;
            total_ms += r.preprocess_ms + r.search_ms;
            total_calls += r.recursive_calls;
            imbalance_sum += r.call_imbalance;
            for (uint64_t c : r.per_thread_calls) {
              max_thread_calls = std::max(max_thread_calls, c);
              min_thread_calls = std::min(min_thread_calls, c);
            }
          }
          if (solved == 0) continue;
          std::printf("%-8s%-7s%-9u%12.2f%14.0f%10.1f%11.2f%11llu/%-10llu\n",
                      set.Name().c_str(), strat_name, threads,
                      total_ms / solved,
                      static_cast<double>(total_calls) / solved,
                      100.0 * solved / set.queries.size(),
                      imbalance_sum / solved,
                      static_cast<unsigned long long>(min_thread_calls),
                      static_cast<unsigned long long>(max_thread_calls));
        }
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace daf::bench

int main(int argc, char** argv) { return daf::bench::Run(argc, argv); }
