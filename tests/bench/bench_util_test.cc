#include "bench_util.h"

#include <gtest/gtest.h>

namespace daf::bench {
namespace {

// Fakes: algorithms whose per-query outcomes are scripted.
Algorithm Scripted(const std::string& name, std::vector<Outcome> outcomes) {
  auto index = std::make_shared<size_t>(0);
  auto script = std::make_shared<std::vector<Outcome>>(std::move(outcomes));
  return Algorithm{name, [index, script](const Graph&) {
                     return (*script)[(*index)++ % script->size()];
                   }};
}

Outcome Solved(double ms, uint64_t calls) {
  Outcome o;
  o.total_ms = ms;
  o.calls = calls;
  o.solved = true;
  return o;
}

Outcome Unsolved() {
  Outcome o;
  o.solved = false;
  return o;
}

std::vector<Graph> DummyQueries(size_t count) {
  std::vector<Graph> queries;
  for (size_t i = 0; i < count; ++i) {
    queries.push_back(Graph::FromEdges({0, 0}, {{0, 1}}));
  }
  return queries;
}

TEST(EvaluateQuerySetTest, AveragesOverAllWhenEverythingSolves) {
  std::vector<Algorithm> algos;
  algos.push_back(Scripted("A", {Solved(1, 10), Solved(3, 30)}));
  std::vector<Summary> s = EvaluateQuerySet(DummyQueries(2), algos);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s[0].avg_ms, 2.0);
  EXPECT_DOUBLE_EQ(s[0].avg_calls, 20.0);
  EXPECT_DOUBLE_EQ(s[0].solved_pct, 100.0);
}

TEST(EvaluateQuerySetTest, UsesLeastTimeConsumingOfEachAlgorithm) {
  // The paper's protocol: n = min #solved across algorithms; each
  // algorithm averages its n *fastest* solved queries.
  std::vector<Algorithm> algos;
  // A solves all 3; B solves only 2 -> n = 2.
  algos.push_back(
      Scripted("A", {Solved(9, 90), Solved(1, 10), Solved(5, 50)}));
  algos.push_back(Scripted("B", {Solved(4, 40), Unsolved(), Solved(2, 20)}));
  std::vector<Summary> s = EvaluateQuerySet(DummyQueries(3), algos);
  ASSERT_EQ(s.size(), 2u);
  // A's two fastest solved: 1 ms and 5 ms.
  EXPECT_DOUBLE_EQ(s[0].avg_ms, 3.0);
  EXPECT_DOUBLE_EQ(s[0].avg_calls, 30.0);
  EXPECT_NEAR(s[0].solved_pct, 100.0, 1e-9);
  // B: both solved queries.
  EXPECT_DOUBLE_EQ(s[1].avg_ms, 3.0);
  EXPECT_NEAR(s[1].solved_pct, 200.0 / 3.0, 1e-9);
}

TEST(EvaluateQuerySetTest, AllUnsolvedYieldsZeroAverages) {
  std::vector<Algorithm> algos;
  algos.push_back(Scripted("A", {Unsolved()}));
  std::vector<Summary> s = EvaluateQuerySet(DummyQueries(2), algos);
  EXPECT_DOUBLE_EQ(s[0].avg_ms, 0.0);
  EXPECT_DOUBLE_EQ(s[0].solved_pct, 0.0);
}

TEST(EvaluateQuerySetTest, EmptyQuerySet) {
  std::vector<Algorithm> algos;
  algos.push_back(Scripted("A", {Solved(1, 1)}));
  std::vector<Summary> s = EvaluateQuerySet({}, algos);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s[0].solved_pct, 0.0);
}

TEST(BenchReportTest, RecordsLabeledRowsAsJson) {
  ResetBenchReport();
  std::vector<Algorithm> algos;
  algos.push_back(Scripted("DAF", {Solved(2, 20)}));
  EvaluateQuerySet(DummyQueries(2), algos, "yeast/Q4S");
  EvaluateQuerySet(DummyQueries(2), algos, "yeast/Q4D");
  std::string json = BenchReportJson();
  EXPECT_NE(json.find("\"figure\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"yeast/Q4S\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"yeast/Q4D\""), std::string::npos);
  EXPECT_NE(json.find("\"algorithm\": \"DAF\""), std::string::npos);
  EXPECT_NE(json.find("\"avg_ms\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"solved_pct\": 100"), std::string::npos);
  ResetBenchReport();
  EXPECT_EQ(BenchReportJson().find("\"label\""), std::string::npos);
}

TEST(BenchReportTest, DefaultPathUsesBinaryName) {
  // The test binary is not named bench_*, so the prefix is kept as-is.
  std::string path = BenchReportPath();
  EXPECT_NE(path.find("BENCH_"), std::string::npos);
  EXPECT_NE(path.find(".json"), std::string::npos);
}

TEST(LatencySummaryTest, OrderStatisticsAndJsonKeys) {
  EXPECT_EQ(Summarize({}).p50, 0.0);
  std::vector<double> samples;
  for (int v = 100; v >= 1; --v) samples.push_back(v);
  const LatencySummary s = Summarize(samples);
  EXPECT_EQ(s.p50, 51.0);
  EXPECT_EQ(s.p95, 96.0);
  EXPECT_EQ(s.p99, 100.0);
  EXPECT_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  // The BENCH_service / BENCH_dynamic latency objects keep these keys.
  obs::JsonWriter w(0);
  WriteLatency(w, s);
  for (const char* key :
       {"\"p50_ms\"", "\"p95_ms\"", "\"p99_ms\"", "\"max_ms\"",
        "\"mean_ms\""}) {
    EXPECT_NE(w.str().find(key), std::string::npos) << key;
  }
}

TEST(DefaultScaleTest, CoversEveryDataset) {
  for (int id = 0;
       id <= static_cast<int>(workload::DatasetId::kTwitterSim); ++id) {
    double scale = DefaultScale(static_cast<workload::DatasetId>(id));
    EXPECT_GT(scale, 0.0);
    EXPECT_LE(scale, 1.0);
  }
}

}  // namespace
}  // namespace daf::bench
