// Loader hardening against hostile or corrupt input: declared-size caps
// (a "t 4000000000 0" header must produce an error, not a gigabyte
// reserve), negative counts (which wrap to huge values under iostream's
// unsigned parse), truncated lines, out-of-range endpoints, and a seeded
// randomized mutation sweep over a valid file. The contract under fuzzing
// is: never crash, never OOM, and either return a structurally valid graph
// or a nonempty error.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/io.h"
#include "util/rng.h"

namespace daf {
namespace {

std::string ValidText() {
  return
      "t 5 4\n"
      "v 0 1\n"
      "v 1 2\n"
      "v 2 1\n"
      "v 3 3\n"
      "v 4 1\n"
      "e 0 1\n"
      "e 1 2\n"
      "e 2 3\n"
      "e 3 4\n";
}

TEST(IoFuzzTest, ValidTextParses) {
  std::string error;
  auto g = ParseGraphText(ValidText(), &error);
  ASSERT_TRUE(g.has_value()) << error;
  EXPECT_EQ(g->NumVertices(), 5u);
  EXPECT_EQ(g->NumEdges(), 4u);
}

TEST(IoFuzzTest, HugeDeclaredVertexCountIsAnErrorNotAnAllocation) {
  std::string error;
  EXPECT_FALSE(ParseGraphText("t 4000000000 0\n", &error).has_value());
  EXPECT_NE(error.find("vertex count"), std::string::npos) << error;
}

TEST(IoFuzzTest, HugeDeclaredEdgeCountIsAnError) {
  std::string error;
  EXPECT_FALSE(
      ParseGraphText("t 4 99999999999\nv 0 0\n", &error).has_value());
  EXPECT_NE(error.find("edge count"), std::string::npos) << error;
}

TEST(IoFuzzTest, NegativeCountsAreRejected) {
  // iostream parses "-1" into an unsigned as a wrapped huge value
  // (strtoull semantics); the declared-size caps must catch it.
  std::string error;
  EXPECT_FALSE(ParseGraphText("t -1 0\n", &error).has_value());
  EXPECT_FALSE(ParseGraphText("t 4 -7\nv 0 0\n", &error).has_value());
}

TEST(IoFuzzTest, MalformedLinesAreErrors) {
  const char* cases[] = {
      "",                        // empty input, no header
      "t\n",                     // truncated header
      "t 5\n",                   // header missing the edge count
      "v 0 1\n",                 // vertex before header
      "e 0 1\n",                 // edge before header
      "t 2 1\nv 0\n",            // truncated vertex line
      "t 2 1\ne 0\n",            // truncated edge line
      "t 2 1\nv 5 0\n",          // vertex id out of declared range
      "t 2 1\ne 0 7\n",          // edge endpoint out of range
      "t 2 1\nx 0 1\n",          // unknown tag
      "t 2 1\nt 2 1\n",          // duplicate header
      "t 2 1\nv zero 0\n",       // non-numeric id
  };
  for (const char* text : cases) {
    SCOPED_TRACE(text);
    std::string error;
    EXPECT_FALSE(ParseGraphText(text, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
}

TEST(IoFuzzTest, DuplicateEdgesDoNotCrash) {
  std::string error;
  auto g = ParseGraphText("t 2 3\nv 0 0\nv 1 0\ne 0 1\ne 0 1\ne 1 0\n",
                          &error);
  // Whether duplicates are merged or kept is the Graph's policy; the
  // loader's contract is only to not crash or corrupt.
  if (g.has_value()) {
    EXPECT_EQ(g->NumVertices(), 2u);
  } else {
    EXPECT_FALSE(error.empty());
  }
}

// Structural sanity of a parsed graph: every reported edge endpoint in
// range. Cheap enough to run on every surviving fuzz case.
void CheckStructure(const Graph& g) {
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId w : g.Neighbors(v)) {
      ASSERT_LT(w, g.NumVertices());
    }
  }
}

TEST(IoFuzzTest, RandomMutationSweepNeverCrashes) {
  const std::string base = ValidText();
  Rng rng(20260806);
  int parsed = 0, rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string text = base;
    // 1-4 random byte mutations: overwrite, insert, or delete.
    const int mutations = 1 + static_cast<int>(rng.NextU64() % 4);
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const size_t pos = rng.NextU64() % text.size();
      switch (rng.NextU64() % 3) {
        case 0:
          text[pos] = static_cast<char>(rng.NextU64() % 96 + 32);
          break;
        case 1:
          text.insert(pos, 1, static_cast<char>(rng.NextU64() % 96 + 32));
          break;
        default:
          text.erase(pos, 1);
          break;
      }
    }
    std::string error;
    auto g = ParseGraphText(text, &error);
    if (g.has_value()) {
      ++parsed;
      CheckStructure(*g);
    } else {
      ++rejected;
      EXPECT_FALSE(error.empty()) << "silent failure on: " << text;
    }
  }
  // The sweep must have exercised both outcomes to mean anything.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(IoFuzzTest, RandomTokenSoupNeverCrashes) {
  // Lines assembled from the loader's own vocabulary with random numbers —
  // hits the header/count/range checks much harder than byte noise.
  Rng rng(7);
  const char* tags[] = {"t", "v", "e", "x", "#"};
  for (int iter = 0; iter < 500; ++iter) {
    std::string text;
    const int lines = static_cast<int>(rng.NextU64() % 12);
    for (int l = 0; l < lines; ++l) {
      text += tags[rng.NextU64() % 5];
      const int fields = static_cast<int>(rng.NextU64() % 4);
      for (int f = 0; f < fields; ++f) {
        text += ' ';
        // Mix small ids, huge values, and negatives.
        switch (rng.NextU64() % 4) {
          case 0: text += std::to_string(rng.NextU64() % 8); break;
          case 1: text += std::to_string(rng.NextU64()); break;
          case 2: text += "-" + std::to_string(rng.NextU64() % 100); break;
          default: text += "4000000000"; break;
        }
      }
      text += '\n';
    }
    std::string error;
    auto g = ParseGraphText(text, &error);
    if (g.has_value()) CheckStructure(*g);
  }
}

}  // namespace
}  // namespace daf
