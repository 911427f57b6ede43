#include "graph/io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "tests/test_util.h"

namespace daf {
namespace {

TEST(IoTest, ParsesWellFormedText) {
  std::string text =
      "# comment\n"
      "t 3 2\n"
      "v 0 10\n"
      "v 1 20\n"
      "v 2 10\n"
      "e 0 1\n"
      "e 1 2\n";
  std::string error;
  auto g = ParseGraphText(text, &error);
  ASSERT_TRUE(g.has_value()) << error;
  EXPECT_EQ(g->NumVertices(), 3u);
  EXPECT_EQ(g->NumEdges(), 2u);
  EXPECT_EQ(g->original_label(g->label(0)), 10u);
  EXPECT_EQ(g->original_label(g->label(1)), 20u);
  EXPECT_TRUE(g->HasEdge(0, 1));
  EXPECT_FALSE(g->HasEdge(0, 2));
}

TEST(IoTest, AcceptsDegreeColumnAndEdgeLabels) {
  std::string text =
      "t 2 1\n"
      "v 0 5 1\n"
      "v 1 5 1\n"
      "e 0 1 3\n";
  std::string error;
  auto g = ParseGraphText(text, &error);
  ASSERT_TRUE(g.has_value()) << error;
  EXPECT_EQ(g->NumEdges(), 1u);
}

TEST(IoTest, RejectsMissingHeader) {
  std::string error;
  EXPECT_FALSE(ParseGraphText("v 0 1\n", &error).has_value());
  EXPECT_NE(error.find("header"), std::string::npos);
}

TEST(IoTest, RejectsOutOfRangeVertex) {
  std::string error;
  EXPECT_FALSE(ParseGraphText("t 2 1\nv 5 0\n", &error).has_value());
}

TEST(IoTest, RejectsOutOfRangeEdge) {
  std::string error;
  EXPECT_FALSE(
      ParseGraphText("t 2 1\nv 0 0\nv 1 0\ne 0 7\n", &error).has_value());
}

TEST(IoTest, RejectsUnknownTag) {
  std::string error;
  EXPECT_FALSE(ParseGraphText("t 1 0\nx 0\n", &error).has_value());
}

TEST(IoTest, TextRoundTrip) {
  Rng rng(21);
  Graph g = daf::testing::RandomDataGraph(50, 120, 6, rng);
  std::string error;
  auto g2 = ParseGraphText(GraphToText(g), &error);
  ASSERT_TRUE(g2.has_value()) << error;
  EXPECT_EQ(g2->NumVertices(), g.NumVertices());
  EXPECT_EQ(g2->NumEdges(), g.NumEdges());
  for (uint32_t v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(g2->original_label(g2->label(v)), g.original_label(g.label(v)));
    EXPECT_EQ(g2->degree(v), g.degree(v));
  }
}

TEST(IoTest, FileRoundTrip) {
  Rng rng(22);
  Graph g = daf::testing::RandomDataGraph(30, 70, 4, rng);
  std::string path = ::testing::TempDir() + "/daf_io_test_graph.txt";
  std::string error;
  ASSERT_TRUE(SaveGraph(g, path, &error)) << error;
  auto g2 = LoadGraph(path, &error);
  ASSERT_TRUE(g2.has_value()) << error;
  EXPECT_EQ(g2->NumEdges(), g.NumEdges());
  std::remove(path.c_str());
}

TEST(IoTest, LoadMissingFileFails) {
  std::string error;
  EXPECT_FALSE(LoadGraph("/nonexistent/definitely/missing.txt", &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace daf
