// Tests for the DynamicGraph substrate, the incrementally maintained
// DynamicTsdIndex, and the parallel index builders.
//
// The central dynamic property: after ANY sequence of edge insertions and
// deletions, the maintained index answers every (v, k) query identically to
// a TSD index rebuilt from scratch on the current graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/dynamic_tsd_index.h"
#include "core/gct_index.h"
#include "core/online_search.h"
#include "core/tsd_index.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"

namespace tsd {
namespace {

// ------------------------------------------------------------ DynamicGraph

TEST(DynamicGraphTest, InsertRemoveRoundTrip) {
  DynamicGraph g(5);
  EXPECT_TRUE(g.InsertEdge(0, 1));
  EXPECT_FALSE(g.InsertEdge(1, 0));  // duplicate
  EXPECT_FALSE(g.InsertEdge(2, 2));  // self-loop
  EXPECT_TRUE(g.InsertEdge(1, 2));
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.RemoveEdge(0, 1));
  EXPECT_FALSE(g.RemoveEdge(0, 1));  // already gone
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.HasEdge(0, 1));
}

TEST(DynamicGraphTest, NeighborsStaySorted) {
  DynamicGraph g(10);
  for (VertexId v : {7u, 3u, 9u, 1u, 5u}) g.InsertEdge(0, v);
  const auto nbrs = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(g.degree(0), 5u);
  g.RemoveEdge(0, 5);
  EXPECT_EQ(g.degree(0), 4u);
  EXPECT_TRUE(std::is_sorted(g.neighbors(0).begin(), g.neighbors(0).end()));
}

TEST(DynamicGraphTest, CommonNeighbors) {
  DynamicGraph g(6);
  g.InsertEdge(0, 2);
  g.InsertEdge(0, 3);
  g.InsertEdge(0, 4);
  g.InsertEdge(1, 3);
  g.InsertEdge(1, 4);
  g.InsertEdge(1, 5);
  EXPECT_EQ(g.CommonNeighbors(0, 1), (std::vector<VertexId>{3, 4}));
  EXPECT_TRUE(g.CommonNeighbors(2, 5).empty());
}

TEST(DynamicGraphTest, ConversionRoundTrip) {
  Graph original = HolmeKim(200, 4, 0.5, 3);
  DynamicGraph dynamic(original);
  EXPECT_EQ(dynamic.num_edges(), original.num_edges());
  Graph back = dynamic.ToGraph();
  EXPECT_TRUE(std::ranges::equal(back.edges(), original.edges()));
}

TEST(DynamicGraphTest, AddVertexGrows) {
  DynamicGraph g(2);
  const VertexId v = g.AddVertex();
  EXPECT_EQ(v, 2u);
  EXPECT_TRUE(g.InsertEdge(0, v));
  EXPECT_EQ(g.degree(v), 1u);
}

// --------------------------------------------------------- DynamicTsdIndex

void ExpectMatchesFreshBuild(const DynamicTsdIndex& dynamic) {
  const Graph snapshot = dynamic.graph().ToGraph();
  TsdIndex fresh = TsdIndex::Build(snapshot);
  for (VertexId v = 0; v < snapshot.num_vertices(); ++v) {
    for (std::uint32_t k = 2; k <= 6; ++k) {
      ASSERT_EQ(dynamic.Score(v, k), fresh.Score(v, k))
          << "v=" << v << " k=" << k;
      ASSERT_EQ(dynamic.ScoreUpperBound(v, k), fresh.ScoreUpperBound(v, k))
          << "v=" << v << " k=" << k;
    }
  }
}

TEST(DynamicTsdIndexTest, InitialBuildMatchesStatic) {
  Graph g = HolmeKim(150, 5, 0.6, 7);
  DynamicTsdIndex dynamic(g);
  ExpectMatchesFreshBuild(dynamic);
  EXPECT_EQ(dynamic.rebuild_count(), 0u);
}

TEST(DynamicTsdIndexTest, SingleInsertMatchesRebuild) {
  Graph g = PaperFigure1Graph();
  DynamicTsdIndex dynamic(g);
  // Connect the two s-vertices (new triangle-free edge).
  EXPECT_TRUE(dynamic.InsertEdge(15, 16));
  ExpectMatchesFreshBuild(dynamic);
  // Re-inserting is a no-op.
  EXPECT_FALSE(dynamic.InsertEdge(15, 16));
}

TEST(DynamicTsdIndexTest, InsertOnlyTouchesAffectedVertices) {
  Graph g = PaperFigure1Graph();
  DynamicTsdIndex dynamic(g);
  // Edge (x1, y2): common neighbors = {v}. Affected = {x1, y2, v} = 3.
  EXPECT_TRUE(dynamic.InsertEdge(1, 6));
  EXPECT_EQ(dynamic.rebuild_count(), 3u);
}

TEST(DynamicTsdIndexTest, DeleteSplitsContext) {
  Graph g = PaperFigure1Graph();
  DynamicTsdIndex dynamic(g);
  EXPECT_EQ(dynamic.Score(0, 4), 3u);
  // Deleting a clique edge destroys the x-context's 4-truss.
  EXPECT_TRUE(dynamic.RemoveEdge(1, 2));  // (x1, x2)
  ExpectMatchesFreshBuild(dynamic);
  EXPECT_EQ(dynamic.Score(0, 4), 2u);
  // Restoring the edge restores the score.
  EXPECT_TRUE(dynamic.InsertEdge(1, 2));
  EXPECT_EQ(dynamic.Score(0, 4), 3u);
  ExpectMatchesFreshBuild(dynamic);
}

TEST(DynamicTsdIndexTest, RandomizedUpdateStream) {
  Graph g = HolmeKim(80, 4, 0.6, 11);
  DynamicTsdIndex dynamic(g);
  Rng rng(13);
  for (int step = 0; step < 60; ++step) {
    const auto u = static_cast<VertexId>(rng.Uniform(80));
    const auto v = static_cast<VertexId>(rng.Uniform(80));
    if (u == v) continue;
    if (dynamic.graph().HasEdge(u, v)) {
      dynamic.RemoveEdge(u, v);
    } else {
      dynamic.InsertEdge(u, v);
    }
    if (step % 10 == 9) ExpectMatchesFreshBuild(dynamic);
  }
  ExpectMatchesFreshBuild(dynamic);
}

TEST(DynamicTsdIndexTest, TopRMatchesOnlineAfterUpdates) {
  Graph g = HolmeKim(120, 5, 0.6, 17);
  DynamicTsdIndex dynamic(g);
  Rng rng(19);
  for (int step = 0; step < 30; ++step) {
    const auto u = static_cast<VertexId>(rng.Uniform(120));
    const auto v = static_cast<VertexId>(rng.Uniform(120));
    if (u != v && !dynamic.graph().HasEdge(u, v)) dynamic.InsertEdge(u, v);
  }
  const Graph snapshot = dynamic.graph().ToGraph();
  OnlineSearcher online(snapshot);
  for (std::uint32_t k : {3u, 4u}) {
    const TopRResult expected = online.TopR(5, k);
    const TopRResult actual = dynamic.TopR(5, k);
    ASSERT_EQ(actual.entries.size(), expected.entries.size());
    for (std::size_t i = 0; i < expected.entries.size(); ++i) {
      EXPECT_EQ(actual.entries[i].vertex, expected.entries[i].vertex);
      EXPECT_EQ(actual.entries[i].score, expected.entries[i].score);
    }
  }
}

TEST(DynamicTsdIndexTest, FreezeProducesEquivalentStaticIndex) {
  Graph g = HolmeKim(100, 4, 0.5, 23);
  DynamicTsdIndex dynamic(g);
  dynamic.InsertEdge(0, 50);
  dynamic.InsertEdge(1, 60);
  TsdIndex frozen = dynamic.Freeze();
  for (VertexId v = 0; v < 100; ++v) {
    for (std::uint32_t k = 2; k <= 5; ++k) {
      EXPECT_EQ(frozen.Score(v, k), dynamic.Score(v, k));
    }
  }
}

TEST(DynamicTsdIndexTest, AddVertexThenConnect) {
  Graph g = PaperFigure1Graph();
  DynamicTsdIndex dynamic(g);
  const VertexId nv = dynamic.AddVertex();
  EXPECT_EQ(dynamic.Score(nv, 2), 0u);
  // Attach the new vertex to the whole x-clique: its ego-network becomes a
  // 4-clique + v... attach to x1..x4.
  for (VertexId x = 1; x <= 4; ++x) dynamic.InsertEdge(nv, x);
  ExpectMatchesFreshBuild(dynamic);
  EXPECT_EQ(dynamic.Score(nv, 4), 1u);
}

// The dynamic index's slices against TsdIndex::Build's: the same forest
// edges in the same order. `check_universe` is off after AddVertex, which
// leaves slices built earlier with the smaller vertex count they saw.
void ExpectSlicesMatch(const DynamicTsdIndex& dynamic, const TsdIndex& fresh,
                       bool check_universe) {
  ASSERT_EQ(dynamic.graph().num_vertices(), fresh.num_vertices());
  for (VertexId v = 0; v < fresh.num_vertices(); ++v) {
    const ForestSlice actual = dynamic.Slice(v);
    const ForestSlice expected = fresh.Slice(v);
    ASSERT_TRUE(std::ranges::equal(actual.u, expected.u)) << "v=" << v;
    ASSERT_TRUE(std::ranges::equal(actual.v, expected.v)) << "v=" << v;
    ASSERT_TRUE(std::ranges::equal(actual.weight, expected.weight))
        << "v=" << v;
    if (check_universe) {
      ASSERT_EQ(actual.universe, expected.universe) << "v=" << v;
    }
  }
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(DynamicTsdIndexTest, FreshSlicesEqualStaticBuild) {
  for (const Graph& g : {PaperFigure1Graph(), HolmeKim(300, 6, 0.6, 41)}) {
    const TsdIndex fresh = TsdIndex::Build(g);
    for (const EgoTrussMethod method :
         {EgoTrussMethod::kHash, EgoTrussMethod::kBitmap}) {
      const DynamicTsdIndex dynamic(g, method);
      ExpectSlicesMatch(dynamic, fresh, /*check_universe=*/true);
      EXPECT_EQ(dynamic.rebuild_count(), 0u);
    }
  }
}

TEST(DynamicTsdIndexTest, FreezeSavesTheStaticBuildsBytes) {
  const Graph g = HolmeKim(300, 6, 0.6, 43);
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string frozen_path = (dir / "tsd_dynamic_test_frozen.snap").string();
  const std::string built_path = (dir / "tsd_dynamic_test_built.snap").string();
  DynamicTsdIndex(g).Freeze().Save(frozen_path);
  TsdIndex::Build(g).Save(built_path);
  const std::string frozen = ReadFileBytes(frozen_path);
  EXPECT_FALSE(frozen.empty());
  EXPECT_EQ(frozen, ReadFileBytes(built_path));
  std::filesystem::remove(frozen_path);
  std::filesystem::remove(built_path);
}

TEST(DynamicTsdIndexTest, SlicesEqualStaticBuildAfterUpdateStream) {
  const Graph g = HolmeKim(200, 5, 0.6, 47);
  DynamicTsdIndex dynamic(g);
  Rng rng(53);
  const auto toggle = [&](VertexId n) {
    const auto u = static_cast<VertexId>(rng.Uniform(n));
    const auto v = static_cast<VertexId>(rng.Uniform(n));
    if (u == v) return;
    if (dynamic.graph().HasEdge(u, v)) {
      EXPECT_TRUE(dynamic.RemoveEdge(u, v));
    } else {
      EXPECT_TRUE(dynamic.InsertEdge(u, v));
    }
  };
  for (int step = 0; step < 150; ++step) toggle(200);
  const VertexId added = dynamic.AddVertex();
  ASSERT_EQ(added, 200u);
  // Give the new vertex an ego worth a forest: a neighbour and its
  // neighbourhood.
  const VertexId hub = 0;
  ASSERT_TRUE(dynamic.InsertEdge(added, hub));
  for (const VertexId w : std::vector<VertexId>(
           dynamic.graph().neighbors(hub).begin(),
           dynamic.graph().neighbors(hub).begin() + 4)) {
    if (w != added) dynamic.InsertEdge(added, w);
  }
  for (int step = 0; step < 150; ++step) toggle(201);
  ASSERT_GT(dynamic.Slice(added).weight.size(), 0u);
  ExpectSlicesMatch(dynamic, TsdIndex::Build(dynamic.graph().ToGraph()),
                    /*check_universe=*/false);
}

// ------------------------------------------------------------ Parallel

TEST(ParallelBuildTest, TsdParallelIdenticalToSequential) {
  Graph g = HolmeKim(400, 6, 0.6, 29);
  TsdIndex sequential = TsdIndex::Build(g);
  TsdIndex::Options parallel_options;
  parallel_options.num_threads = 4;
  TsdIndex parallel = TsdIndex::Build(g, parallel_options);
  ASSERT_EQ(parallel.num_vertices(), sequential.num_vertices());
  EXPECT_EQ(parallel.SizeBytes(), sequential.SizeBytes());
  EXPECT_EQ(parallel.max_weight(), sequential.max_weight());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(parallel.NumForestEdges(v), sequential.NumForestEdges(v));
    for (std::uint32_t k = 2; k <= 6; ++k) {
      ASSERT_EQ(parallel.Score(v, k), sequential.Score(v, k))
          << "v=" << v << " k=" << k;
    }
  }
}

TEST(ParallelBuildTest, GctParallelIdenticalToSequential) {
  Graph g = HolmeKim(400, 6, 0.6, 31);
  GctIndex sequential = GctIndex::Build(g);
  GctIndex::Options parallel_options;
  parallel_options.num_threads = 4;
  GctIndex parallel = GctIndex::Build(g, parallel_options);
  parallel.CheckInvariants();
  ASSERT_EQ(parallel.num_vertices(), sequential.num_vertices());
  EXPECT_EQ(parallel.SizeBytes(), sequential.SizeBytes());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(parallel.NumSupernodes(v), sequential.NumSupernodes(v));
    ASSERT_EQ(parallel.NumSuperedges(v), sequential.NumSuperedges(v));
    for (std::uint32_t k = 2; k <= 6; ++k) {
      ASSERT_EQ(parallel.Score(v, k), sequential.Score(v, k));
    }
    EXPECT_EQ(parallel.ScoreWithContexts(v, 3).contexts,
              sequential.ScoreWithContexts(v, 3).contexts);
  }
}

TEST(ParallelBuildTest, SingleChunkGraphSmallerThanThreads) {
  // More threads than vertices must still work.
  Graph g = PaperFigure1Graph();
  TsdIndex::Options options;
  options.num_threads = 32;
  TsdIndex parallel = TsdIndex::Build(g, options);
  TsdIndex sequential = TsdIndex::Build(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(parallel.Score(v, 4), sequential.Score(v, 4));
  }
}

}  // namespace
}  // namespace tsd
