// Workload `engine`: the library path the paper evaluates. One thread runs
// DafMatch back to back on one warm MatchContext over a fixed list of
// Yeast and HPRD queries (Q50/Q100, sparse and non-sparse, plus Appendix
// A.3 negatives). No service, cache or dynamic layer runs.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/cfl_match.h"
#include "common.h"
#include "daf/engine.h"
#include "daf/match_context.h"
#include "util/stop.h"
#include "workload/datasets.h"
#include "workload/negative.h"
#include "workload/querygen.h"

namespace perfbench {
namespace {

constexpr uint64_t kLimit = 100000;          // the paper's k
// The Yeast and HPRD stand-ins play the paper's fixed real datasets, so
// they come from one fixed seed; the run's seed draws the queries.
constexpr uint64_t kDatasetSeed = 1;
constexpr uint32_t kPerSet = 24;             // queries per Q-set per dataset
constexpr uint32_t kNegativesPerKind = 8;    // per dataset and generator
constexpr uint64_t kCallBudget = 200000;     // screening cap per query
constexpr uint64_t kSafetyLimitMs = 10000;   // per-query stop, never reached
constexpr size_t kOracleQueries = 12;        // baseline-checked subsample
constexpr uint64_t kBaselineLimitMs = 1000;  // per baseline-checked query
// Fewer subsample queries than this finishing within the baseline's time
// limit is a mismatch: the baseline check must not pass by timing out.
// Some subsample queries take the baseline 0.5-0.95 s on a 4-vCPU Xeon VM,
// so a third of the subsample leaves room for a host twice as slow.
constexpr size_t kOracleMinChecked = 4;
constexpr double kTailQuantile = 0.9;

struct EngineQuery {
  int dataset = 0;  // index into EngineInputs::data
  std::string set;  // "Q50S", ..., "neg-label", "neg-edge"
  daf::Graph query;
};

struct EngineInputs {
  std::vector<daf::Graph> data;
  std::vector<EngineQuery> list;
  uint64_t candidates = 0;  // queries generated before screening
};

// Runs DafMatch with a recursive-call cap: the progress hook fires on the
// engine's 4096-call poll and cancels past the cap, so whether a query
// passes does not depend on timing.
bool WithinCallBudget(const daf::Graph& query, const daf::Graph& data,
                      daf::MatchContext* context) {
  daf::CancelToken cancel;
  daf::MatchOptions options;
  options.limit = kLimit;
  options.cancel = &cancel;
  options.progress_interval_ms = 0;
  options.progress = [&](const daf::obs::ProgressSnapshot& snapshot) {
    if (snapshot.recursive_calls > kCallBudget) cancel.Cancel();
  };
  daf::MatchResult r = daf::DafMatch(query, data, options, context);
  return r.ok && !r.cancelled && r.recursive_calls <= kCallBudget;
}

EngineInputs MakeInputs(uint64_t seed) {
  EngineInputs in;
  const daf::workload::DatasetId ids[] = {daf::workload::DatasetId::kYeast,
                                          daf::workload::DatasetId::kHprd};
  for (int d = 0; d < 2; ++d) {
    in.data.push_back(
        daf::workload::MakeDataset(ids[d], 1.0, kDatasetSeed + d));
  }
  daf::Rng rng(seed * 7919 + 17);
  std::vector<EngineQuery> candidates;
  for (int d = 0; d < 2; ++d) {
    const daf::Graph& data = in.data[d];
    for (uint32_t size : {50u, 100u}) {
      for (bool sparse : {true, false}) {
        daf::workload::QuerySet set =
            daf::workload::MakeQuerySet(data, size, sparse, kPerSet, rng);
        for (daf::Graph& q : set.queries) {
          candidates.push_back({d, set.Name(), std::move(q)});
        }
      }
    }
    // Appendix A.3 negatives, perturbed from fresh Q50S positives.
    daf::workload::QuerySet base = daf::workload::MakeQuerySet(
        data, 50, true, 2 * kNegativesPerKind, rng);
    for (uint32_t i = 0; i < base.queries.size(); ++i) {
      if (i < kNegativesPerKind) {
        candidates.push_back(
            {d, "neg-label",
             daf::workload::PerturbLabels(base.queries[i], data, 3, rng)});
      } else {
        candidates.push_back(
            {d, "neg-edge",
             daf::workload::AddRandomEdges(base.queries[i], 10, rng)});
      }
    }
  }
  in.candidates = candidates.size();
  daf::MatchContext context;
  for (EngineQuery& c : candidates) {
    if (WithinCallBudget(c.query, in.data[c.dataset], &context)) {
      in.list.push_back(std::move(c));
    }
  }
  return in;
}

}  // namespace

Outcome RunEngine(const Args& args) {
  Outcome out;
  EngineInputs in;
  const double setup_s =
      MedianSetupSeconds(3, [&] { in = MakeInputs(args.seed); });
  if (in.list.empty()) {
    out.Mismatch("no engine query passed screening");
    return out;
  }
  std::vector<const daf::Graph*> data;
  for (const daf::Graph& g : in.data) data.push_back(&g);

  daf::MatchContext context;
  daf::MatchOptions options;
  options.limit = kLimit;
  options.time_limit_ms = kSafetyLimitMs;

  // Reference counts, outside set-up and timing: the first run of every
  // query. Every timed run must repeat its count; on a fixed subsample each
  // reported embedding is checked to be a valid, distinct embedding and the
  // count must equal an independent baseline (CFL-Match).
  std::vector<uint64_t> expected(in.list.size());
  for (size_t i = 0; i < in.list.size(); ++i) {
    expected[i] = daf::DafMatch(in.list[i].query, *data[in.list[i].dataset],
                                options, &context)
                      .embeddings;
  }
  {
    const size_t stride = std::max<size_t>(1, in.list.size() / kOracleQueries);
    size_t checked = 0, timeouts = 0;
    double baseline_max_ms = 0;  // slowest baseline run that finished
    for (size_t i = 0; i < in.list.size(); i += stride) {
      const daf::Graph& query = in.list[i].query;
      const daf::Graph& g = *data[in.list[i].dataset];
      EmbeddingChecker checker(query, g);
      daf::MatchOptions checked_options;
      checked_options.limit = kLimit;
      checked_options.callback = [&](std::span<const daf::VertexId> m) {
        checker.Check(m);
        return true;
      };
      const uint64_t count =
          daf::DafMatch(query, g, checked_options, &context).embeddings;
      if (!checker.ok() || count != expected[i]) {
        out.Mismatch("engine query " + std::to_string(i) + " (" +
                     in.list[i].set + "): " + checker.error() + " (count " +
                     std::to_string(count) + ", reference " +
                     std::to_string(expected[i]) + ")");
      }
      daf::baselines::MatcherOptions bo;
      bo.limit = kLimit;
      bo.time_limit_ms = kBaselineLimitMs;
      const Clock::time_point b0 = Clock::now();
      daf::baselines::MatcherResult b = daf::baselines::CflMatch(query, g, bo);
      if (b.timed_out) {
        ++timeouts;  // unverified by the baseline; the checker still ran
        continue;
      }
      ++checked;
      baseline_max_ms = std::max(baseline_max_ms, Ms(b0, Clock::now()));
      if (!b.ok || b.embeddings != expected[i]) {
        out.Mismatch("engine query " + std::to_string(i) + " (" +
                     in.list[i].set + "): DAF " +
                     std::to_string(expected[i]) + " vs CFL-Match " +
                     std::to_string(b.embeddings));
      }
    }
    if (checked < kOracleMinChecked) {
      out.Mismatch("only " + std::to_string(checked) +
                   " subsample queries were checked against CFL-Match (" +
                   std::to_string(timeouts) + " timed out); at least " +
                   std::to_string(kOracleMinChecked) + " must be");
    }
    out.Note("oracle_baseline_checked", static_cast<double>(checked));
    out.Note("oracle_baseline_timeouts", static_cast<double>(timeouts));
    out.Note("oracle_baseline_max_ms", baseline_max_ms);
  }

  // One untraced query; returns its latency in ms.
  auto run_untraced = [&](size_t i) {
    const Clock::time_point start = Clock::now();
    daf::MatchResult r = daf::DafMatch(
        in.list[i].query, *data[in.list[i].dataset], options, &context);
    const double ms = Ms(start, Clock::now());
    ++out.attempted;
    if (!r.ok || r.timed_out) {
      ++out.failed;
    } else if (r.embeddings != expected[i]) {
      out.Mismatch("engine query " + std::to_string(i) + " returned " +
                   std::to_string(r.embeddings) + ", expected " +
                   std::to_string(expected[i]));
    }
    return ms;
  };

  std::vector<double> untraced_ms;
  auto timed_untraced = [&](double seconds) {
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = After(seconds);
    for (size_t i = 0; Clock::now() < end; i = (i + 1) % in.list.size()) {
      untraced_ms.push_back(run_untraced(i));
    }
    return Ms(start, Clock::now()) / 1000.0;
  };

  out.Note("queries", static_cast<double>(in.list.size()));
  out.Note("query_candidates", static_cast<double>(in.candidates));
  out.Note("limit", static_cast<double>(kLimit));
  out.Note("queries_per_set", kPerSet);
  out.Note("negatives_per_kind", kNegativesPerKind);
  out.Note("call_budget", static_cast<double>(kCallBudget));
  out.Note("threads", 1);
  out.Note("tail_quantile", kTailQuantile);

  if (!args.trace) {
    const double elapsed = timed_untraced(args.seconds);
    out.Set("setup_s", setup_s);
    out.Set("peak_rss_mb", PeakRssMb());
    out.Set("ops_per_s", static_cast<double>(untraced_ms.size()) / elapsed);
    out.Set("latency_p50_ms", Percentile(untraced_ms, 0.5));
    out.Set("latency_tail_ms", Percentile(untraced_ms, kTailQuantile));
    out.Note("samples", static_cast<double>(untraced_ms.size()));
    out.Report("queries_per_s",
               static_cast<double>(untraced_ms.size()) / elapsed, "1/s");
    out.NoteJson("query_quantiles_ms", QuantilesJson(untraced_ms));
    out.Report("query_p50_ms", Percentile(untraced_ms, 0.5), "ms");
    out.Report("query_p90_ms", Percentile(untraced_ms, 0.9), "ms");
    out.Report("query_p99_ms", Percentile(untraced_ms, 0.99), "ms");
    return out;
  }

  // Traced run. Exact counts come from one pass over the list (the same
  // inputs at the same seed give the same counts). Times come from whole
  // passes over the list, alternately untraced (DafMatch) and traced (the
  // layers called one by one), so both sides run the same queries on the
  // same host conditions.
  LayerSample totals;
  for (size_t i = 0; i < in.list.size(); ++i) {
    LayerSample s = TracedMatch(in.list[i].query, *data[in.list[i].dataset],
                                kLimit, /*profile=*/true, &context);
    totals.AddCounts(s);
    if (s.embeddings != expected[i]) {
      out.Mismatch("traced pipeline disagrees with DafMatch on query " +
                   std::to_string(i));
    }
  }
  std::vector<double> traced_ms, dag, cs, weights, backtrack;
  std::vector<std::vector<double>> untraced_by_query(in.list.size());
  std::vector<std::vector<double>> layers_by_query(in.list.size());
  const Clock::time_point end = After(args.seconds);
  do {
    for (size_t i = 0; i < in.list.size(); ++i) {
      untraced_ms.push_back(run_untraced(i));
      untraced_by_query[i].push_back(untraced_ms.back());
    }
    for (size_t i = 0; i < in.list.size(); ++i) {
      LayerSample s =
          TracedMatch(in.list[i].query, *data[in.list[i].dataset], kLimit,
                      /*profile=*/false, &context);
      ++out.attempted;
      traced_ms.push_back(s.total_ms);
      dag.push_back(s.dag_ms);
      cs.push_back(s.cs_ms);
      weights.push_back(s.weights_ms);
      backtrack.push_back(s.backtrack_ms);
      layers_by_query[i].push_back(s.BuildMs() + s.backtrack_ms);
    }
  } while (Clock::now() < end);
  // The query path's leftover: per query, DafMatch's own time minus the
  // time of its four layers, averaged over the list. It holds whatever
  // DafMatch does outside the layers (stop conditions, budgets, profile
  // handling, result assembly).
  std::vector<double> leftover;
  for (size_t i = 0; i < in.list.size(); ++i) {
    leftover.push_back(Percentile(untraced_by_query[i], 0.5) -
                       Percentile(layers_by_query[i], 0.5));
  }
  out.Set("query_dag.ms", Mean(dag));
  out.Set("candidate_space.ms", Mean(cs));
  out.Set("weights.ms", Mean(weights));
  out.Set("backtrack.ms", Mean(backtrack));
  SetSearchCounts(totals, &out);
  out.Set("leftover.query_ms", Mean(leftover));
  SetTraceOverhead(traced_ms, untraced_ms, &out);
  return out;
}

}  // namespace perfbench
