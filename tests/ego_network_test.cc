// Tests for ego-network extraction (per-vertex and one-shot global) and the
// two ego truss decomposition kernels (hash vs bitmap).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "graph/dynamic_graph.h"
#include "graph/ego_network.h"
#include "graph/generators.h"
#include "reference_impls.h"
#include "truss/ego_truss.h"
#include "graph/triangle.h"

namespace tsd {
namespace {

TEST(EgoNetworkTest, CenterIsExcluded) {
  Graph g = PaperFigure1Graph();
  EgoNetworkExtractor extractor(g);
  EgoNetwork ego = extractor.Extract(0);  // v
  EXPECT_EQ(ego.center, 0u);
  EXPECT_EQ(std::count(ego.members.begin(), ego.members.end(), 0u), 0);
  EXPECT_EQ(ego.num_members(), 14u);  // x1..x4, y1..y4, r1..r6
}

TEST(EgoNetworkTest, PaperFigure1EgoOfVHas26Edges) {
  // 6 (x-clique) + 6 (y-clique) + 2 bridges + 12 (octahedron) = 26.
  Graph g = PaperFigure1Graph();
  EgoNetworkExtractor extractor(g);
  EgoNetwork ego = extractor.Extract(0);
  EXPECT_EQ(ego.num_edges(), 26u);
}

TEST(EgoNetworkTest, MatchesNaiveInducedSubgraph) {
  Graph g = HolmeKim(120, 5, 0.6, 17);
  EgoNetworkExtractor extractor(g);
  for (VertexId v = 0; v < g.num_vertices(); v += 7) {
    EgoNetwork ego = extractor.Extract(v);
    const Graph naive = testing::NaiveEgoGraph(g, v);
    ASSERT_EQ(ego.num_edges(), naive.num_edges()) << "vertex " << v;
    for (const Edge& e : ego.edges) {
      EXPECT_TRUE(naive.HasEdge(ego.ToGlobal(e.u), ego.ToGlobal(e.v)));
    }
  }
}

TEST(EgoNetworkTest, ToLocalInvertsToGlobal) {
  Graph g = HolmeKim(80, 4, 0.5, 3);
  EgoNetworkExtractor extractor(g);
  EgoNetwork ego = extractor.Extract(10);
  for (std::uint32_t i = 0; i < ego.num_members(); ++i) {
    EXPECT_EQ(ego.ToLocal(ego.ToGlobal(i)), i);
  }
  EXPECT_EQ(ego.ToLocal(ego.center), kInvalidVertex);
}

TEST(EgoNetworkTest, CsrDegreesMatchEdgeList) {
  Graph g = HolmeKim(100, 5, 0.5, 9);
  EgoNetworkExtractor extractor(g);
  EgoNetwork ego = extractor.Extract(5);
  ego.BuildCsr();
  std::vector<std::uint32_t> degree(ego.num_members(), 0);
  for (const Edge& e : ego.edges) {
    ++degree[e.u];
    ++degree[e.v];
  }
  for (std::uint32_t i = 0; i < ego.num_members(); ++i) {
    EXPECT_EQ(ego.LocalDegree(i), degree[i]);
    const auto nbrs = ego.LocalNeighbors(i);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  }
}

TEST(EgoNetworkTest, DynamicGraphExtractionMatchesItsCsrSnapshot) {
  const Graph initial = HolmeKim(150, 5, 0.6, 61);
  DynamicGraph dynamic(initial);
  DynamicEgoNetworkExtractor dynamic_extractor(dynamic);
  Rng rng(67);
  const auto toggle = [&] {
    const auto u = static_cast<VertexId>(rng.Uniform(dynamic.num_vertices()));
    const auto v = static_cast<VertexId>(rng.Uniform(dynamic.num_vertices()));
    if (dynamic.HasEdge(u, v)) {
      dynamic.RemoveEdge(u, v);
    } else {
      dynamic.InsertEdge(u, v);
    }
  };
  for (int step = 0; step < 200; ++step) toggle();
  // A vertex beyond the initial n: the extractor's mark array must cover it
  // once re-bound.
  const VertexId added = dynamic.AddVertex();
  ASSERT_GE(added, initial.num_vertices());
  dynamic_extractor.Rebind(dynamic);
  for (VertexId w = 0; w < 12; ++w) dynamic.InsertEdge(added, w * 3);
  for (int step = 0; step < 200; ++step) toggle();

  const Graph snapshot = dynamic.ToGraph();
  EgoNetworkExtractor csr_extractor(snapshot);
  EgoNetwork from_dynamic;
  for (VertexId v = 0; v < snapshot.num_vertices(); ++v) {
    dynamic_extractor.ExtractInto(v, &from_dynamic);
    const EgoNetwork from_csr = csr_extractor.Extract(v);
    ASSERT_EQ(from_dynamic.center, from_csr.center);
    ASSERT_EQ(from_dynamic.members, from_csr.members) << "vertex " << v;
    ASSERT_EQ(from_dynamic.edges, from_csr.edges) << "vertex " << v;
  }
  EXPECT_GT(csr_extractor.Extract(added).num_edges(), 0u);
}

TEST(EgoNetworkTest, GlobalOneShotMatchesPerVertexExtraction) {
  for (std::uint64_t seed : {4ull, 21ull}) {
    Graph g = HolmeKim(150, 5, 0.6, seed);
    GlobalEgoNetworks global(g);
    EgoNetworkExtractor extractor(g);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EgoNetwork a = global.Materialize(v);
      EgoNetwork b = extractor.Extract(v);
      EXPECT_EQ(a.members, b.members) << "vertex " << v;
      EXPECT_EQ(a.edges, b.edges) << "vertex " << v;
    }
  }
}

TEST(EgoNetworkTest, GlobalTriangleCountConsistent) {
  Graph g = HolmeKim(200, 4, 0.5, 8);
  GlobalEgoNetworks global(g);
  EXPECT_EQ(global.num_triangles(), CountTriangles(g));
}

// The parallel distribution fill (per-chunk counting matrix) must reproduce
// the sequential pass bit for bit: every center's ego-edge slice in the
// same listing order, at any thread count.
TEST(EgoNetworkTest, GlobalListingParallelFillBitIdentical) {
  for (std::uint64_t seed : {4ull, 13ull}) {
    Graph g = HolmeKim(300, 5, 0.6, seed);
    GlobalEgoNetworks sequential(g, ParallelConfig{1, 0});
    for (std::uint32_t threads : {2u, 8u}) {
      GlobalEgoNetworks parallel(g, ParallelConfig{threads, 0});
      ASSERT_EQ(parallel.num_triangles(), sequential.num_triangles());
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        const auto expected = sequential.EgoEdges(v);
        const auto actual = parallel.EgoEdges(v);
        ASSERT_EQ(actual.size(), expected.size())
            << "seed=" << seed << " threads=" << threads << " v=" << v;
        for (std::size_t i = 0; i < expected.size(); ++i) {
          EXPECT_TRUE(actual[i].u == expected[i].u &&
                      actual[i].v == expected[i].v)
              << "seed=" << seed << " threads=" << threads << " v=" << v
              << " slot=" << i;
        }
      }
    }
  }
}

// Odd chunk counts exercise uneven chunk boundaries in the counting matrix.
TEST(EgoNetworkTest, GlobalListingParallelFillOddChunks) {
  Graph g = HolmeKim(200, 5, 0.5, 17);
  GlobalEgoNetworks sequential(g, ParallelConfig{1, 0});
  GlobalEgoNetworks parallel(g, ParallelConfig{3, 7});
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto expected = sequential.EgoEdges(v);
    const auto actual = parallel.EgoEdges(v);
    ASSERT_EQ(actual.size(), expected.size()) << "v=" << v;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(actual[i].u == expected[i].u && actual[i].v == expected[i].v)
          << "v=" << v << " slot=" << i;
    }
  }
}

// ----------------------------------------------------- Ego truss kernels

TEST(EgoTrussTest, HashMatchesNaiveOnFigure1) {
  Graph g = PaperFigure1Graph();
  EgoNetworkExtractor extractor(g);
  EgoNetwork ego = extractor.Extract(0);
  const auto trussness = ComputeEgoTrussness(ego, EgoTrussMethod::kHash);

  // Convert to a global-id graph and compare against the naive trussness.
  const Graph naive_ego = testing::NaiveEgoGraph(g, 0);
  const auto naive = testing::NaiveTrussness(naive_ego);
  for (EdgeId e = 0; e < ego.num_edges(); ++e) {
    const EdgeId ne = naive_ego.FindEdge(ego.ToGlobal(ego.edges[e].u),
                                         ego.ToGlobal(ego.edges[e].v));
    ASSERT_NE(ne, kInvalidEdge);
    EXPECT_EQ(trussness[e], naive[ne]);
  }
}

TEST(EgoTrussTest, BitmapMatchesHashAcrossGraphs) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Graph g = HolmeKim(120, 6, 0.6, seed);
    EgoNetworkExtractor extractor(g);
    EgoTrussDecomposer hash(EgoTrussMethod::kHash);
    EgoTrussDecomposer bitmap(EgoTrussMethod::kBitmap);
    for (VertexId v = 0; v < g.num_vertices(); v += 3) {
      EgoNetwork ego1 = extractor.Extract(v);
      EgoNetwork ego2 = ego1;
      EXPECT_EQ(hash.Compute(ego1), bitmap.Compute(ego2))
          << "seed " << seed << " vertex " << v;
    }
  }
}

TEST(EgoTrussTest, BitmapFallsBackWhenOverBudget) {
  Graph g = HolmeKim(100, 5, 0.5, 2);
  EgoNetworkExtractor extractor(g);
  // A 1-byte budget forces the hash fallback even in kBitmap mode.
  EgoTrussDecomposer tiny_budget(EgoTrussMethod::kBitmap, 1);
  EgoTrussDecomposer hash(EgoTrussMethod::kHash);
  EgoNetwork ego1 = extractor.Extract(0);
  EgoNetwork ego2 = ego1;
  EXPECT_EQ(tiny_budget.Compute(ego1), hash.Compute(ego2));
}

TEST(EgoTrussTest, EmptyEgoNetwork) {
  // A leaf vertex's ego-network has one member and no edges.
  Graph g = Graph::FromEdges({{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  EgoNetworkExtractor extractor(g);
  EgoNetwork ego = extractor.Extract(3);
  EXPECT_EQ(ego.num_members(), 1u);
  EXPECT_EQ(ego.num_edges(), 0u);
  EXPECT_TRUE(ComputeEgoTrussness(ego).empty());
}

// The paper's non-symmetry observation (Observation 1): trussness of the
// octahedron edge (r1,r2) inside GN(v) is 4, but trussness of (v,r2) inside
// GN(r1) is only 3.
TEST(EgoTrussTest, PaperNonSymmetryObservation) {
  Graph g = PaperFigure1Graph();
  EgoNetworkExtractor extractor(g);

  EgoNetwork ego_v = extractor.Extract(0);
  const auto truss_v = ComputeEgoTrussness(ego_v);
  const std::uint32_t r1 = ego_v.ToLocal(9);
  const std::uint32_t r2 = ego_v.ToLocal(10);
  EdgeId e_r1r2 = kInvalidEdge;
  for (EdgeId e = 0; e < ego_v.num_edges(); ++e) {
    if ((ego_v.edges[e] == Edge{std::min(r1, r2), std::max(r1, r2)})) {
      e_r1r2 = e;
    }
  }
  ASSERT_NE(e_r1r2, kInvalidEdge);
  EXPECT_EQ(truss_v[e_r1r2], 4u);

  EgoNetwork ego_r1 = extractor.Extract(9);
  const auto truss_r1 = ComputeEgoTrussness(ego_r1);
  const std::uint32_t lv = ego_r1.ToLocal(0);
  const std::uint32_t lr2 = ego_r1.ToLocal(10);
  EdgeId e_vr2 = kInvalidEdge;
  for (EdgeId e = 0; e < ego_r1.num_edges(); ++e) {
    if ((ego_r1.edges[e] == Edge{std::min(lv, lr2), std::max(lv, lr2)})) {
      e_vr2 = e;
    }
  }
  ASSERT_NE(e_vr2, kInvalidEdge);
  EXPECT_EQ(truss_r1[e_vr2], 3u);
}

}  // namespace
}  // namespace tsd
