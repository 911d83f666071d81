// Tests for the per-ego scoring kernels (truss / component / k-core models),
// the single-threshold ego floor kernel against the full decomposition, the
// TopRCollector ordering and pruning semantics, and the Lemma 2 upper
// bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/bound_search.h"
#include "core/online_search.h"
#include "core/scoring.h"
#include "core/top_r_collector.h"
#include "graph/ego_network.h"
#include "graph/generators.h"
#include "truss/core_decomposition.h"
#include "truss/ego_floor.h"
#include "truss/ego_truss.h"
#include "graph/triangle.h"

namespace tsd {
namespace {

EgoNetwork Figure1EgoOfV() {
  Graph g = PaperFigure1Graph();
  EgoNetworkExtractor extractor(g);
  return extractor.Extract(0);
}

TEST(ScoreFromEgoTrussnessTest, Figure1AcrossK) {
  EgoNetwork ego = Figure1EgoOfV();
  const auto trussness = ComputeEgoTrussness(ego);
  EXPECT_EQ(ScoreFromEgoTrussness(ego, trussness, 2, false).score, 2u);
  EXPECT_EQ(ScoreFromEgoTrussness(ego, trussness, 3, false).score, 2u);
  EXPECT_EQ(ScoreFromEgoTrussness(ego, trussness, 4, false).score, 3u);
  EXPECT_EQ(ScoreFromEgoTrussness(ego, trussness, 5, false).score, 0u);
}

TEST(ScoreFromEgoTrussnessTest, ContextsOnlyWhenRequested) {
  EgoNetwork ego = Figure1EgoOfV();
  const auto trussness = ComputeEgoTrussness(ego);
  EXPECT_TRUE(ScoreFromEgoTrussness(ego, trussness, 4, false).contexts.empty());
  const auto result = ScoreFromEgoTrussness(ego, trussness, 4, true);
  ASSERT_EQ(result.contexts.size(), 3u);
  // Contexts sorted by smallest member; each sorted internally.
  EXPECT_EQ(result.contexts[0], (SocialContext{1, 2, 3, 4}));
  EXPECT_EQ(result.contexts[1], (SocialContext{5, 6, 7, 8}));
  EXPECT_EQ(result.contexts[2], (SocialContext{9, 10, 11, 12, 13, 14}));
}

TEST(ScoreComponentsTest, Figure1SizesThreshold) {
  EgoNetwork ego = Figure1EgoOfV();
  // Components of v's ego: {x,y merged} (8 vertices) and octahedron (6).
  EXPECT_EQ(ScoreComponents(ego, 2, false).score, 2u);
  EXPECT_EQ(ScoreComponents(ego, 7, false).score, 1u);
  EXPECT_EQ(ScoreComponents(ego, 9, false).score, 0u);
  const auto result = ScoreComponents(ego, 2, true);
  ASSERT_EQ(result.contexts.size(), 2u);
  EXPECT_EQ(result.contexts[0].size(), 8u);
  EXPECT_EQ(result.contexts[1].size(), 6u);
}

TEST(ScoreKCoresTest, Figure1) {
  EgoNetwork ego = Figure1EgoOfV();
  // 3-cores of the ego-network: x-clique+y-clique component has a 3-core
  // (the cliques), octahedron is a 4-core.
  const auto result3 = ScoreKCores(ego, 3, true);
  EXPECT_EQ(result3.score, 2u);
  const auto result4 = ScoreKCores(ego, 4, true);
  // Only the octahedron is a 4-core.
  ASSERT_EQ(result4.score, 1u);
  EXPECT_EQ(result4.contexts[0], (SocialContext{9, 10, 11, 12, 13, 14}));
  EXPECT_EQ(ScoreKCores(ego, 5, false).score, 0u);
}

TEST(ScoreKCoresTest, CoreModelMergesWhatTrussSeparates) {
  // The paper's core-model critique: H1 (two 4-cliques + 2 bridges through
  // y1) is one connected 3-core, but two 4-trusses.
  EgoNetwork ego = Figure1EgoOfV();
  const auto trussness = ComputeEgoTrussness(ego);
  const auto truss4 = ScoreFromEgoTrussness(ego, trussness, 4, true);
  const auto core3 = ScoreKCores(ego, 3, true);
  // truss at k=4 separates x-clique from y-clique; core-3 keeps them merged.
  bool core_has_merged_xy = false;
  for (const auto& context : core3.contexts) {
    if (context.size() == 8) core_has_merged_xy = true;
  }
  EXPECT_TRUE(core_has_merged_xy);
  bool truss_has_separate_x = false;
  for (const auto& context : truss4.contexts) {
    if (context == SocialContext{1, 2, 3, 4}) truss_has_separate_x = true;
  }
  EXPECT_TRUE(truss_has_separate_x);
}

// ------------------------------------------------------- Ego floor kernel

struct GraphCase {
  std::string name;
  Graph graph;
};

// The five graphs of the truss and pipeline differential suites.
std::vector<GraphCase> TestGraphs() {
  std::vector<GraphCase> cases;
  cases.push_back({"figure1", PaperFigure1Graph()});
  cases.push_back({"er", ErdosRenyi(80, 500, 3)});
  cases.push_back({"hk", HolmeKim(250, 5, 0.6, 4)});
  cases.push_back({"ba", BarabasiAlbert(200, 4, 5)});
  cases.push_back({"rmat", RMat(8, 6, 0.45, 0.2, 0.2, 6)});
  return cases;
}

/// Ego edges that must reach support counting at k: those of the ego's
/// (k−1)-core, from an independent core decomposition. Step 1 (fewer than
/// C(k,2) edges) and k = 2 count nothing.
std::uint64_t ExpectedEdgesSupported(const EgoNetwork& ego,
                                     const std::vector<std::uint32_t>& core,
                                     std::uint32_t k) {
  if (k == 2 || ego.num_edges() < std::uint64_t{k} * (k - 1) / 2) return 0;
  std::uint64_t count = 0;
  for (const Edge& e : ego.edges) {
    if (core[e.u] >= k - 1 && core[e.v] >= k - 1) ++count;
  }
  return count;
}

class EgoFloorPeelerTest : public ::testing::TestWithParam<int> {};

// The spec: at every k from 2 to one past the ego's maximum trussness, the
// floor kernel's edges are exactly the edges of trussness ≥ k, its score
// and contexts equal ScoreFromEgoTrussness over the full decomposition,
// and its prefilter leaves exactly the (k−1)-core for support counting.
TEST_P(EgoFloorPeelerTest, MatchesThresholdedFullDecomposition) {
  const GraphCase test_case = TestGraphs()[GetParam()];
  const Graph& g = test_case.graph;
  EgoNetworkExtractor extractor(g);
  EgoTrussDecomposer decomposer(EgoTrussMethod::kHash);
  EgoFloorPeeler peeler;
  EgoComponentScratch scratch;
  EgoNetwork ego;
  std::vector<std::uint32_t> trussness;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    extractor.ExtractInto(v, &ego);
    decomposer.ComputeInto(ego, &trussness);
    const std::vector<std::uint32_t> core =
        CoreNumbersCsr(ego.num_members(), ego.offsets, ego.adj);
    std::uint32_t max_trussness = 2;
    for (std::uint32_t t : trussness) max_trussness = std::max(max_trussness, t);
    for (std::uint32_t k = 2; k <= max_trussness + 1; ++k) {
      const std::string label = test_case.name + " v=" + std::to_string(v) +
                                " k=" + std::to_string(k);
      std::vector<Edge> expected_edges;
      for (EdgeId e = 0; e < ego.num_edges(); ++e) {
        if (trussness[e] >= k) expected_edges.push_back(ego.edges[e]);
      }
      const std::span<const Edge> edges = peeler.Peel(ego, k);
      EXPECT_EQ(std::vector<Edge>(edges.begin(), edges.end()), expected_edges)
          << label;
      EXPECT_EQ(peeler.edges_supported(),
                ExpectedEdgesSupported(ego, core, k))
          << label;
      const ScoreResult expected = ScoreFromEgoTrussness(ego, trussness, k,
                                                         /*want_contexts=*/true);
      const ScoreResult actual =
          ScoreFromEgoTrussEdges(ego, edges, /*want_contexts=*/true, scratch);
      EXPECT_EQ(actual.score, expected.score) << label;
      EXPECT_EQ(actual.contexts, expected.contexts) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllGraphs, EgoFloorPeelerTest, ::testing::Range(0, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return TestGraphs()[info.param].name;
                         });

Graph Clique(VertexId n) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId w = u + 1; w < n; ++w) edges.emplace_back(u, w);
  }
  return Graph::FromEdges(std::move(edges), n);
}

TEST(EgoFloorPeelerEdgeCaseTest, IsolatedCenter) {
  const Graph g = Graph::FromEdges({{1, 2}}, 3);
  EgoNetworkExtractor extractor(g);
  EgoNetwork ego = extractor.Extract(0);
  ASSERT_EQ(ego.num_members(), 0u);
  EgoFloorPeeler peeler;
  for (const std::uint32_t k : {2u, 3u}) {
    EXPECT_TRUE(peeler.Peel(ego, k).empty());
    EXPECT_EQ(peeler.edges_supported(), 0u);
  }
}

// The ego of a wheel's hub is its rim, a 6-cycle: one 2-truss context and
// nothing from k = 3 on, where every member has degree 2 = k−1 and so
// survives the prefilter, but every edge has support 0.
TEST(EgoFloorPeelerEdgeCaseTest, TriangleFreeEgo) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 1; v <= 6; ++v) {
    edges.emplace_back(0, v);
    edges.emplace_back(v, v % 6 + 1);
  }
  const Graph g = Graph::FromEdges(std::move(edges), 7);
  EgoNetworkExtractor extractor(g);
  EgoNetwork ego = extractor.Extract(0);
  ASSERT_EQ(ego.num_edges(), 6u);
  EgoFloorPeeler peeler;
  EgoComponentScratch scratch;
  const ScoreResult two =
      ScoreFromEgoTrussEdges(ego, peeler.Peel(ego, 2), true, scratch);
  EXPECT_EQ(two.score, 1u);
  EXPECT_EQ(two.contexts, (std::vector<SocialContext>{{1, 2, 3, 4, 5, 6}}));
  EXPECT_TRUE(peeler.Peel(ego, 3).empty());
  EXPECT_EQ(peeler.edges_supported(), 6u);
  EXPECT_TRUE(peeler.Peel(ego, 4).empty());
  EXPECT_EQ(peeler.edges_supported(), 0u);  // 6 edges < C(4,2)
}

// Every ego of K_{n+1} is K_n, which is exactly an n-truss.
TEST(EgoFloorPeelerEdgeCaseTest, CliqueAtItsTrussnessAndOneAbove) {
  for (const VertexId n : {3u, 4u, 7u}) {
    const Graph g = Clique(n + 1);
    EgoNetworkExtractor extractor(g);
    EgoNetwork ego = extractor.Extract(n);
    ASSERT_EQ(ego.num_edges(), n * (n - 1) / 2);
    EgoFloorPeeler peeler;
    EXPECT_EQ(peeler.Peel(ego, n).size(), ego.num_edges()) << "K" << n;
    EXPECT_EQ(peeler.edges_supported(), ego.num_edges()) << "K" << n;
    EXPECT_TRUE(peeler.Peel(ego, n + 1).empty()) << "K" << n;
    EXPECT_EQ(peeler.edges_supported(), 0u) << "K" << n;
  }
}

// The 2-truss is every edge: no support is counted, and the score counts
// the ego's components that have an edge.
TEST(EgoFloorPeelerEdgeCaseTest, KTwoKeepsEveryEdge) {
  EgoNetwork ego = Figure1EgoOfV();
  EgoFloorPeeler peeler;
  const std::span<const Edge> edges = peeler.Peel(ego, 2);
  EXPECT_EQ(std::vector<Edge>(edges.begin(), edges.end()), ego.edges);
  EXPECT_EQ(peeler.edges_supported(), 0u);
  EgoComponentScratch scratch;
  EXPECT_EQ(ScoreFromEgoTrussEdges(ego, edges, false, scratch).score, 2u);
}

// The largest k a caller can pass: C(k, 2) needs 64 bits there, and the
// answer is empty, through the kernel and through ScoreVertex alike.
TEST(EgoFloorPeelerEdgeCaseTest, HugeKScoresZeroWithoutOverflow) {
  EgoNetwork ego = Figure1EgoOfV();
  EgoFloorPeeler peeler;
  EXPECT_TRUE(peeler.Peel(ego, UINT32_MAX).empty());
  EXPECT_EQ(peeler.edges_supported(), 0u);
  const Graph g = PaperFigure1Graph();
  OnlineSearcher online(g);
  EXPECT_EQ(online.ScoreVertex(0, UINT32_MAX, true).score, 0u);
  EXPECT_THROW(peeler.Peel(ego, 1), CheckError);
}

// ---------------------------------------------------------------- Collector

TEST(TopRCollectorTest, KeepsHighestScores) {
  TopRCollector collector(2);
  collector.Offer(10, 5);
  collector.Offer(11, 1);
  collector.Offer(12, 7);
  const auto ranked = collector.Ranked();
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0], (std::pair<VertexId, std::uint32_t>{12, 7}));
  EXPECT_EQ(ranked[1], (std::pair<VertexId, std::uint32_t>{10, 5}));
}

TEST(TopRCollectorTest, TieBrokenBySmallerId) {
  TopRCollector collector(2);
  collector.Offer(30, 4);
  collector.Offer(20, 4);
  EXPECT_TRUE(collector.Offer(10, 4));   // displaces 30
  EXPECT_FALSE(collector.Offer(40, 4));  // larger id loses the tie
  const auto ranked = collector.Ranked();
  EXPECT_EQ(ranked[0].first, 10u);
  EXPECT_EQ(ranked[1].first, 20u);
}

TEST(TopRCollectorTest, PruneSemantics) {
  TopRCollector collector(2);
  EXPECT_FALSE(collector.CanPrune(0, 0));  // not full yet
  collector.Offer(5, 3);
  collector.Offer(9, 3);
  // bound below worst score prunes.
  EXPECT_TRUE(collector.CanPrune(2, 100));
  // bound equal to worst score: only a smaller id could still displace.
  EXPECT_FALSE(collector.CanPrune(3, 7));   // 7 < worst id 9: must evaluate
  EXPECT_TRUE(collector.CanPrune(3, 10));   // 10 > 9: prune
  // bound above worst score never prunes.
  EXPECT_FALSE(collector.CanPrune(4, 1000));
}

TEST(TopRCollectorTest, WorstTracksDisplacement) {
  TopRCollector collector(2);
  collector.Offer(1, 1);
  collector.Offer(2, 2);
  EXPECT_EQ(collector.WorstScore(), 1u);
  EXPECT_EQ(collector.WorstId(), 1u);
  collector.Offer(3, 5);
  EXPECT_EQ(collector.WorstScore(), 2u);
  EXPECT_EQ(collector.WorstId(), 2u);
}

// ---------------------------------------------------------------- Bounds

TEST(UpperBoundTest, Lemma2HoldsEverywhere) {
  for (std::uint64_t seed : {3ull, 4ull}) {
    Graph g = HolmeKim(200, 5, 0.6, seed);
    const auto ego_edges = TrianglesPerVertex(g);
    EgoNetworkExtractor extractor(g);
    EgoTrussDecomposer decomposer;
    for (std::uint32_t k : {2u, 3u, 4u, 5u}) {
      const auto bounds = BoundSearcher::UpperBounds(g, ego_edges, k);
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        EgoNetwork ego = extractor.Extract(v);
        const auto trussness = decomposer.Compute(ego);
        const auto score =
            ScoreFromEgoTrussness(ego, trussness, k, false).score;
        EXPECT_GE(bounds[v], score) << "v=" << v << " k=" << k;
      }
    }
  }
}

TEST(UpperBoundTest, Figure1Example3Values) {
  Graph g = PaperFigure1Graph();
  const auto ego_edges = TrianglesPerVertex(g);
  const auto bounds = BoundSearcher::UpperBounds(g, ego_edges, 4);
  // score̅(v) = min(⌊14/4⌋, ⌊2*26/12⌋) = min(3, 4) = 3 (Example 3).
  EXPECT_EQ(bounds[0], 3u);
  // score̅(x1) = min(⌊5/4⌋, ⌊2*7/12⌋) = 1.
  EXPECT_EQ(bounds[1], 1u);
}

// One m_v per vertex is a precondition: a short vector used to be read past
// its end.
TEST(UpperBoundTest, ShortEgoEdgeCountsFailCheck) {
  Graph g = PaperFigure1Graph();
  std::vector<std::uint64_t> ego_edges = TrianglesPerVertex(g);
  ego_edges.pop_back();
  EXPECT_THROW(BoundSearcher::UpperBounds(g, ego_edges, 4), CheckError);
  EXPECT_THROW(BoundSearcher::UpperBounds(g, {}, 4), CheckError);
}

}  // namespace
}  // namespace tsd
