// Tests for the shared TSD forest kernels and drivers (core/forest_slice.h)
// as both indexes expose them: argument checks and the driver's work and
// timing stats, which must not depend on which index supplies the slices.
#include "core/forest_slice.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "core/dynamic_tsd_index.h"
#include "core/tsd_index.h"
#include "graph/generators.h"

namespace tsd {
namespace {

TEST(ForestSliceTest, ScoreUpperBoundChecksItsArguments) {
  const Graph g = HolmeKim(200, 5, 0.6, 3);
  const TsdIndex tsd = TsdIndex::Build(g);
  const DynamicTsdIndex dynamic(g);
  EXPECT_THROW(tsd.ScoreUpperBound(0, 1), CheckError);
  EXPECT_THROW(dynamic.ScoreUpperBound(0, 1), CheckError);
  EXPECT_THROW(tsd.ScoreUpperBound(0, 0), CheckError);
  EXPECT_THROW(dynamic.ScoreUpperBound(0, 0), CheckError);
  EXPECT_THROW(tsd.ScoreUpperBound(g.num_vertices(), 3), CheckError);
  EXPECT_THROW(dynamic.ScoreUpperBound(g.num_vertices(), 3), CheckError);
  EXPECT_EQ(dynamic.ScoreUpperBound(0, 3), tsd.ScoreUpperBound(0, 3));
}

void ExpectSameTopR(const TsdIndex& tsd, const DynamicTsdIndex& dynamic,
                    const std::string& what) {
  for (std::uint32_t threads : {1u, 2u, 8u}) {
    QueryOptions options;
    options.num_threads = threads;
    QuerySession session(options);
    for (std::uint32_t k : {3u, 4u, 5u}) {
      for (std::uint32_t r : {1u, 5u}) {
        const std::string where = what + " threads=" +
                                  std::to_string(threads) +
                                  " k=" + std::to_string(k) +
                                  " r=" + std::to_string(r);
        const TopRResult expected = tsd.TopR(r, k, session);
        const TopRResult actual = dynamic.TopR(r, k, session);
        EXPECT_GT(actual.stats.preprocess_seconds, 0) << where;
        EXPECT_GT(actual.stats.score_seconds, 0) << where;
        EXPECT_EQ(actual.stats.vertices_scored,
                  expected.stats.vertices_scored)
            << where;
        ASSERT_EQ(actual.entries.size(), expected.entries.size()) << where;
        for (std::size_t i = 0; i < expected.entries.size(); ++i) {
          EXPECT_EQ(actual.entries[i].vertex, expected.entries[i].vertex)
              << where;
          EXPECT_EQ(actual.entries[i].score, expected.entries[i].score)
              << where;
          EXPECT_EQ(actual.entries[i].contexts, expected.entries[i].contexts)
              << where;
        }
      }
    }
  }
}

// Both indexes run one TopR driver, so the dynamic index reports the
// static index's timers and scans exactly as many vertices, before and
// after an update stream.
TEST(ForestSliceTest, DynamicTopRStatsMatchStatic) {
  const Graph g = HolmeKim(300, 5, 0.6, 11);
  DynamicTsdIndex dynamic(g);
  ExpectSameTopR(TsdIndex::Build(g), dynamic, "initial");

  Rng rng(13);
  for (int step = 0; step < 80; ++step) {
    const auto u = static_cast<VertexId>(rng.Uniform(300));
    const auto v = static_cast<VertexId>(rng.Uniform(300));
    if (u == v) continue;
    if (dynamic.graph().HasEdge(u, v)) {
      dynamic.RemoveEdge(u, v);
    } else {
      dynamic.InsertEdge(u, v);
    }
  }
  ExpectSameTopR(dynamic.Freeze(), dynamic, "frozen after churn");
  ExpectSameTopR(TsdIndex::Build(dynamic.graph().ToGraph()), dynamic,
                 "rebuilt after churn");
}

}  // namespace
}  // namespace tsd
