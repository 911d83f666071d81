// Differential suite for the TrussPlan subsystem (truss/truss_plan.h).
// Trussness is the unique fixed point of support peeling, so every plan —
// Bsp, CoreThenTruss, and whatever Auto resolves to — must be bit-identical
// to the sequential Wang–Cheng peel on every graph at every thread count;
// exact equality is the specification, not a tolerance. Also covers: the
// single-floor k-truss peel (KTrussAtFloor) against the full decomposition,
// the core prefilter's soundness against an independently recomputed core
// bound, auto-tuner determinism, the bitmap support kernel, the plan knob
// threading through QueryOptions into the searchers, and the ordered batch
// scan (small total r) against the per-query reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/bound_search.h"
#include "core/tsd_index.h"
#include "core/types.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "truss/core_decomposition.h"
#include "truss/k_truss.h"
#include "truss/peeling.h"
#include "graph/triangle.h"
#include "truss/truss_decomposition.h"
#include "truss/truss_plan.h"

namespace tsd {
namespace {

struct GraphCase {
  std::string name;
  Graph graph;
};

// Same five graphs as the parallel-truss differential suite.
std::vector<GraphCase> TestGraphs() {
  std::vector<GraphCase> cases;
  cases.push_back({"figure1", PaperFigure1Graph()});
  cases.push_back({"er", ErdosRenyi(80, 500, 3)});
  cases.push_back({"hk", HolmeKim(250, 5, 0.6, 4)});
  cases.push_back({"ba", BarabasiAlbert(200, 4, 5)});
  cases.push_back({"rmat", RMat(8, 6, 0.45, 0.2, 0.2, 6)});
  return cases;
}

struct PlanCase {
  std::string name;  // gtest-safe spelling, used in CI's --gtest_filter
  TrussPlanAlgorithm algorithm;
};

std::vector<PlanCase> PlanCases() {
  return {{"bsp", TrussPlanAlgorithm::kBsp},
          {"core_truss", TrussPlanAlgorithm::kCoreThenTruss},
          {"auto", TrussPlanAlgorithm::kAuto}};
}

std::vector<ParallelConfig> ThreadConfigs() {
  // 0 chunks = auto; the 5-chunk case exercises uneven chunk boundaries.
  return {ParallelConfig{1, 0}, ParallelConfig{2, 0}, ParallelConfig{2, 5},
          ParallelConfig{8, 0}};
}

std::vector<std::uint32_t> SequentialTrussness(const Graph& g) {
  CsrView<std::uint64_t> view;
  view.num_vertices = g.num_vertices();
  view.edges = g.edges();
  view.offsets = g.offsets();
  view.adj = g.adjacency();
  view.adj_edge_ids = g.adjacency_edge_ids();
  return PeelSupportToTrussness(view, ComputeSupport(g));
}

Graph Clique(VertexId n) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return Graph::FromEdges(std::move(edges), n);
}

void ExpectSameEntries(const TopRResult& actual, const TopRResult& expected,
                       const std::string& label) {
  ASSERT_EQ(actual.entries.size(), expected.entries.size()) << label;
  for (std::size_t i = 0; i < expected.entries.size(); ++i) {
    EXPECT_EQ(actual.entries[i].vertex, expected.entries[i].vertex) << label;
    EXPECT_EQ(actual.entries[i].score, expected.entries[i].score) << label;
    EXPECT_EQ(actual.entries[i].contexts, expected.entries[i].contexts)
        << label;
  }
}

// ------------------------------------------------ plan × graph differential

class TrussPlanDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TrussPlanDifferentialTest, BitIdenticalToSequentialPeel) {
  const GraphCase test_case = TestGraphs()[std::get<0>(GetParam())];
  const PlanCase plan_case = PlanCases()[std::get<1>(GetParam())];
  const Graph& g = test_case.graph;
  const std::vector<std::uint32_t> expected = SequentialTrussness(g);
  const TrussPlan plan = TrussPlan::FromAlgorithm(plan_case.algorithm);
  for (const ParallelConfig& config : ThreadConfigs()) {
    const std::string label = test_case.name + " plan=" + plan_case.name +
                              " threads=" +
                              std::to_string(config.num_threads) + " chunks=" +
                              std::to_string(config.num_chunks);
    TrussPlanStats stats;
    EXPECT_EQ(TrussnessWithPlan(g, plan, config, &stats), expected) << label;
    EXPECT_EQ(stats.requested, plan_case.algorithm) << label;
    EXPECT_NE(stats.algorithm, TrussPlanAlgorithm::kAuto) << label;
    // A full decomposition has floor 2, where nothing is pruned: every edge
    // endpoint has core ≥ 1.
    EXPECT_EQ(stats.edges_pruned, 0u) << label;
    EXPECT_EQ(stats.graph_stats.num_edges, g.num_edges()) << label;
  }
}

TEST_P(TrussPlanDifferentialTest, TrussDecompositionRoutesPlan) {
  const GraphCase test_case = TestGraphs()[std::get<0>(GetParam())];
  const PlanCase plan_case = PlanCases()[std::get<1>(GetParam())];
  const Graph& g = test_case.graph;
  const TrussDecomposition sequential(g);
  const TrussPlan plan = TrussPlan::FromAlgorithm(plan_case.algorithm);
  for (const ParallelConfig& config : ThreadConfigs()) {
    const std::string label = test_case.name + " plan=" + plan_case.name +
                              " threads=" + std::to_string(config.num_threads);
    const TrussDecomposition planned(g, config, plan);
    EXPECT_EQ(planned.edge_trussness(), sequential.edge_trussness()) << label;
    EXPECT_EQ(planned.max_trussness(), sequential.max_trussness()) << label;
    EXPECT_EQ(planned.TrussnessHistogram(), sequential.TrussnessHistogram())
        << label;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(planned.vertex_trussness(v), sequential.vertex_trussness(v))
          << label << " v=" << v;
    }
    EXPECT_EQ(planned.plan_stats().requested, plan_case.algorithm) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphsAllPlans, TrussPlanDifferentialTest,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 3)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return TestGraphs()[std::get<0>(info.param)].name + "_" +
             PlanCases()[std::get<1>(info.param)].name;
    });

// The config-carried algorithm tag must reach the 2-arg TrussDecomposition
// constructor (the path every existing caller takes).
TEST(TrussPlanRoutingTest, ConfigCarriesAlgorithmTag) {
  const Graph g = HolmeKim(250, 5, 0.6, 4);
  const std::vector<std::uint32_t> expected = SequentialTrussness(g);
  for (const PlanCase& plan_case : PlanCases()) {
    ParallelConfig config{2, 0};
    config.truss_plan = plan_case.algorithm;
    const TrussDecomposition decomposition(g, config);
    EXPECT_EQ(decomposition.edge_trussness(), expected) << plan_case.name;
    EXPECT_EQ(decomposition.plan_stats().requested, plan_case.algorithm)
        << plan_case.name;
  }
}

// ------------------------------------------------ single-floor k-truss peel

// The floor-truss's edges as endpoint pairs, for comparing graphs that share
// a vertex-id space.
std::vector<Edge> EdgesOf(const Graph& g) {
  return {g.edges().begin(), g.edges().end()};
}

std::vector<Edge> EdgesOf(const Graph& g, const std::vector<EdgeId>& ids) {
  std::vector<Edge> edges;
  for (const EdgeId e : ids) edges.push_back(g.edge(e));
  return edges;
}

class KTrussAtFloorTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

// The spec: KTrussAtFloor's edge set is the full decomposition's floor-truss
// at every floor up to one past the maximum trussness (where it is empty),
// at every thread count and under every plan.
TEST_P(KTrussAtFloorTest, EqualsFloorTrussOfFullDecomposition) {
  const GraphCase test_case = TestGraphs()[std::get<0>(GetParam())];
  const PlanCase plan_case = PlanCases()[std::get<1>(GetParam())];
  const Graph& g = test_case.graph;
  const TrussDecomposition full(g);
  for (std::uint32_t floor = 3; floor <= full.max_trussness() + 1; ++floor) {
    const std::vector<Edge> expected =
        EdgesOf(g, KTrussEdges(g, full.edge_trussness(), floor));
    const std::uint64_t core_pruned =
        internal::PruneByCoreBound(g, floor).edges_pruned;
    for (ParallelConfig config : ThreadConfigs()) {
      config.truss_plan = plan_case.algorithm;
      const std::string label = test_case.name + " plan=" + plan_case.name +
                                " floor=" + std::to_string(floor) +
                                " threads=" +
                                std::to_string(config.num_threads);
      TrussPlanStats stats;
      const Graph truss = KTrussAtFloor(g, floor, config, &stats);
      EXPECT_EQ(truss.num_vertices(), g.num_vertices()) << label;
      EXPECT_EQ(EdgesOf(truss), expected) << label;
      EXPECT_EQ(stats.requested, plan_case.algorithm) << label;
      EXPECT_EQ(stats.algorithm,
                plan_case.algorithm == TrussPlanAlgorithm::kAuto
                    ? ChooseTrussPlanAlgorithm(stats.graph_stats, floor)
                    : plan_case.algorithm)
          << label;
      // The prefilter runs, and prunes exactly what PruneByCoreBound
      // prunes at this floor, only when the plan resolves to CoreThenTruss.
      EXPECT_EQ(stats.edges_pruned,
                stats.algorithm == TrussPlanAlgorithm::kCoreThenTruss
                    ? core_pruned
                    : 0u)
          << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphsAllPlans, KTrussAtFloorTest,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 3)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return TestGraphs()[std::get<0>(info.param)].name + "_" +
             PlanCases()[std::get<1>(info.param)].name;
    });

TEST(KTrussAtFloorEdgeCaseTest, EmptyGraphs) {
  for (const VertexId n : {0u, 7u}) {
    const Graph empty = Graph::FromEdges({}, n);
    for (const std::uint32_t floor : {2u, 3u, 5u}) {
      for (const PlanCase& plan_case : PlanCases()) {
        ParallelConfig config{2, 0};
        config.truss_plan = plan_case.algorithm;
        TrussPlanStats stats;
        const Graph truss = KTrussAtFloor(empty, floor, config, &stats);
        EXPECT_EQ(truss.num_vertices(), n) << plan_case.name;
        EXPECT_EQ(truss.num_edges(), 0u) << plan_case.name;
        EXPECT_EQ(stats.edges_pruned, 0u) << plan_case.name;
      }
    }
  }
}

// Every edge of a triangle-free graph has support 0: the whole graph is the
// 2-truss and nothing survives floor 3.
TEST(KTrussAtFloorEdgeCaseTest, TriangleFreeGraph) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v < 12; ++v) edges.emplace_back(v, (v + 1) % 12);
  for (VertexId v = 0; v < 12; v += 2) edges.emplace_back(v, 12);  // star
  const Graph g = Graph::FromEdges(std::move(edges), 14);
  ASSERT_EQ(CountTriangles(g), 0u);
  for (const PlanCase& plan_case : PlanCases()) {
    ParallelConfig config{1, 0};
    config.truss_plan = plan_case.algorithm;
    EXPECT_EQ(EdgesOf(KTrussAtFloor(g, 2, config)), EdgesOf(g))
        << plan_case.name;
    for (const std::uint32_t floor : {3u, 4u}) {
      const Graph truss = KTrussAtFloor(g, floor, config);
      EXPECT_EQ(truss.num_vertices(), g.num_vertices()) << plan_case.name;
      EXPECT_EQ(truss.num_edges(), 0u) << plan_case.name;
    }
  }
}

// K_n is exactly an n-truss: every edge survives floor n and none floor n+1.
TEST(KTrussAtFloorEdgeCaseTest, CliqueAtItsTrussnessAndOneAbove) {
  for (const VertexId n : {3u, 4u, 9u}) {
    const Graph clique = Clique(n);
    for (const PlanCase& plan_case : PlanCases()) {
      for (const std::uint32_t threads : {1u, 8u}) {
        ParallelConfig config{threads, 0};
        config.truss_plan = plan_case.algorithm;
        const std::string label = "K" + std::to_string(n) +
                                  " plan=" + plan_case.name;
        EXPECT_EQ(EdgesOf(KTrussAtFloor(clique, n, config)), EdgesOf(clique))
            << label;
        EXPECT_EQ(KTrussAtFloor(clique, n + 1, config).num_edges(), 0u)
            << label;
      }
    }
  }
}

// Every edge has trussness ≥ 2, so floor 2 (and the clamped floors below it)
// keeps the whole graph and prunes nothing.
TEST(KTrussAtFloorEdgeCaseTest, FloorTwoReturnsWholeGraph) {
  for (const GraphCase& test_case : TestGraphs()) {
    for (const PlanCase& plan_case : PlanCases()) {
      ParallelConfig config{2, 0};
      config.truss_plan = plan_case.algorithm;
      for (const std::uint32_t floor : {0u, 1u, 2u}) {
        TrussPlanStats stats;
        const Graph truss =
            KTrussAtFloor(test_case.graph, floor, config, &stats);
        EXPECT_EQ(truss.num_vertices(), test_case.graph.num_vertices());
        EXPECT_EQ(EdgesOf(truss), EdgesOf(test_case.graph))
            << test_case.name << " plan=" << plan_case.name;
        EXPECT_EQ(stats.edges_pruned, 0u);
      }
    }
  }
}

// ------------------------------------------------ core prefilter soundness

// Recomputes the Burkhardt bound independently and checks the prefilter
// KTrussAtFloor runs under CoreThenTruss against it: exactly the
// below-floor edges are pruned, every pruned edge's true trussness really is
// below the floor, and the pruned graph is exactly the remaining edges, in
// input order, over the same vertices.
TEST(CoreThenTrussPruneSoundnessTest, PrunedEdgesAreProvablyIrrelevant) {
  std::uint64_t total_pruned = 0;
  for (const GraphCase& test_case : TestGraphs()) {
    const Graph& g = test_case.graph;
    const std::vector<std::uint32_t> full = SequentialTrussness(g);
    const CoreDecomposition cores(g);
    for (const std::uint32_t floor_k : {2u, 3u, 4u, 5u, 6u}) {
      const std::string label =
          test_case.name + " floor=" + std::to_string(floor_k);
      const internal::CorePrunedGraph pruned =
          internal::PruneByCoreBound(g, floor_k);
      std::vector<EdgeId> kept;
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        const Edge& edge = g.edge(e);
        const std::uint32_t bound =
            std::min(cores.core(edge.u), cores.core(edge.v)) + 1;
        if (bound < floor_k) {
          // The bound proves trussness < floor; the peel must agree.
          ASSERT_LT(full[e], floor_k) << label << " e=" << e;
        } else {
          kept.push_back(e);
        }
      }
      const std::uint64_t expected_pruned = g.num_edges() - kept.size();
      EXPECT_EQ(pruned.edges_pruned, expected_pruned) << label;
      if (expected_pruned == 0) {
        // Nothing pruned: no subgraph is built and callers keep the input.
        EXPECT_EQ(pruned.graph.num_edges(), 0u) << label;
        continue;
      }
      EXPECT_EQ(pruned.graph.num_vertices(), g.num_vertices()) << label;
      EXPECT_EQ(EdgesOf(pruned.graph), EdgesOf(g, kept)) << label;
      total_pruned += expected_pruned;
    }
  }
  // The suite must actually exercise pruning, not just the zero-pruned
  // fast path.
  EXPECT_GT(total_pruned, 0u);
}

// ------------------------------------------------ auto-tuner determinism

TEST(TrussPlanAutoTest, ResolutionAndResultAreDeterministic) {
  for (const GraphCase& test_case : TestGraphs()) {
    const Graph& g = test_case.graph;
    const GraphStatistics stats = ComputeGraphStatistics(g);
    for (const ParallelConfig& config : ThreadConfigs()) {
      const TrussPlanAlgorithm first = ChooseTrussPlanAlgorithm(stats, 2);
      EXPECT_EQ(ChooseTrussPlanAlgorithm(stats, 2), first);
      EXPECT_NE(first, TrussPlanAlgorithm::kAuto);
      TrussPlanStats run1;
      TrussPlanStats run2;
      const std::vector<std::uint32_t> t1 =
          TrussnessWithPlan(g, TrussPlan::Auto(), config, &run1);
      const std::vector<std::uint32_t> t2 =
          TrussnessWithPlan(g, TrussPlan::Auto(), config, &run2);
      EXPECT_EQ(run1.algorithm, first) << test_case.name;
      EXPECT_EQ(run2.algorithm, first) << test_case.name;
      EXPECT_EQ(t1, t2) << test_case.name;
    }
  }
}

// The prefilter pays only above floor 2 on skewed degree sequences; every
// other case runs the peel alone.
TEST(TrussPlanAutoTest, PicksCoreThenTrussAboveFloorTwoOnSkewedGraphs) {
  GraphStatistics skewed;
  skewed.degree_skew = 3.0;
  GraphStatistics even;
  even.degree_skew = 2.9;
  EXPECT_EQ(ChooseTrussPlanAlgorithm(skewed, 3),
            TrussPlanAlgorithm::kCoreThenTruss);
  EXPECT_EQ(ChooseTrussPlanAlgorithm(skewed, 2), TrussPlanAlgorithm::kBsp);
  EXPECT_EQ(ChooseTrussPlanAlgorithm(even, 3), TrussPlanAlgorithm::kBsp);
  EXPECT_EQ(ChooseTrussPlanAlgorithm(even, 2), TrussPlanAlgorithm::kBsp);
}

TEST(TrussPlanParseTest, RoundTripsCliSpellings) {
  for (const std::string name : {"auto", "bsp", "core-truss"}) {
    const auto parsed = ParseTrussPlanAlgorithm(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(TrussPlanAlgorithmName(*parsed), name);
  }
  EXPECT_FALSE(ParseTrussPlanAlgorithm("coretruss").has_value());
  EXPECT_FALSE(ParseTrussPlanAlgorithm("jacobi").has_value());
  EXPECT_FALSE(ParseTrussPlanAlgorithm("").has_value());
}

// ------------------------------------------------ bitmap support kernel

TEST(BitmapSupportKernelTest, MatchesMergeIntersection) {
  const Graph clique = Clique(120);
  const Graph dense_er = ErdosRenyi(300, 8000, 9);
  for (const Graph* g : {&clique, &dense_er}) {
    ASSERT_TRUE(internal::BitmapSupportEligible(
        g->num_vertices(), g->num_edges(), internal::kBitmapBudgetBytes,
        internal::kGlobalBitmapDensityShift));
    const std::vector<std::uint32_t> expected = ComputeSupport(*g);
    for (const ParallelConfig& config : ThreadConfigs()) {
      EXPECT_EQ(internal::SupportViaBitmaps(*g, config), expected)
          << "threads=" << config.num_threads;
    }
    // Dense graphs route through the bitmap kernel inside the plan runner;
    // the trussness must not move.
    TrussPlanStats stats;
    EXPECT_EQ(
        TrussnessWithPlan(*g, TrussPlan::Bsp(), ParallelConfig{2, 0}, &stats),
        SequentialTrussness(*g));
    EXPECT_TRUE(stats.bitmap_kernel);
  }
}

TEST(BitmapSupportKernelTest, EligibilityRule) {
  const std::size_t budget = internal::kBitmapBudgetBytes;
  // Degenerate inputs never qualify.
  EXPECT_FALSE(internal::BitmapSupportEligible(2, 1, budget, 6));
  EXPECT_FALSE(internal::BitmapSupportEligible(100, 0, budget, 6));
  // Density floor is m ≥ n² >> shift (here 10000 >> 6 = 156).
  EXPECT_TRUE(internal::BitmapSupportEligible(100, 156, budget, 6));
  EXPECT_FALSE(internal::BitmapSupportEligible(100, 155, budget, 6));
  // The ego shift admits much sparser graphs (10000 >> 10 = 9).
  EXPECT_TRUE(internal::BitmapSupportEligible(100, 9, budget, 10));
  // n bitmaps of n bits must fit the budget.
  EXPECT_FALSE(
      internal::BitmapSupportEligible(100, 5000, /*budget_bytes=*/100, 6));
}

// ------------------------------------------------ searcher integration

// The plan knob threads QueryOptions → ParallelConfig → the bound
// searcher's floor peel; the ranked answers must not move under any named
// plan, and CoreThenTruss must report its pruning in SearchStats (the
// searcher consumes only the (k+1)-truss, so it peels at floor k + 1).
TEST(TrussPlanSearcherTest, BoundSearcherIdenticalUnderEveryPlan) {
  // Power-law graph with a low-core tail: at floor k+1 = 5 the core
  // prefilter actually prunes edges (HolmeKim's uniform m-per-vertex keeps
  // every core at 5, so it never prunes below floor 7).
  const Graph g = RMat(8, 6, 0.45, 0.2, 0.2, 6);
  BoundSearcher reference(g);
  const TopRResult expected = reference.TopR(10, 4);
  const std::vector<BatchQuery> batch = {{3, 5}, {4, 10}, {5, 3}};
  const std::vector<TopRResult> expected_batch = reference.SearchBatch(batch);
  bool any_pruned = false;
  for (const PlanCase& plan_case : PlanCases()) {
    BoundSearcher searcher(g);
    QueryOptions options;
    options.num_threads = 2;
    options.truss_plan = plan_case.algorithm;
    searcher.set_query_options(options);
    const TopRResult result = searcher.TopR(10, 4);
    ExpectSameEntries(result, expected, "topr plan=" + plan_case.name);
    if (plan_case.algorithm == TrussPlanAlgorithm::kCoreThenTruss) {
      any_pruned = result.stats.edges_pruned > 0;
    }
    const std::vector<TopRResult> batch_result = searcher.SearchBatch(batch);
    ASSERT_EQ(batch_result.size(), expected_batch.size());
    for (std::size_t q = 0; q < batch.size(); ++q) {
      ExpectSameEntries(batch_result[q], expected_batch[q],
                        "batch plan=" + plan_case.name + " q=" +
                            std::to_string(q));
    }
  }
  // At floor k+1 = 5 the power-law graph must actually lose edges to the
  // core prefilter (the answers above prove losing them is harmless).
  EXPECT_TRUE(any_pruned);
}

// Batches whose total r is small run the shared bound-ordered scan (one
// bound order at the smallest k upper-bounds every query — both bound
// formulas are non-increasing in k); large batches keep the full scan.
// Both paths must be bit-identical to per-query TopR.
TEST(TrussPlanSearcherTest, OrderedBatchScanBitIdenticalToPerQuery) {
  const Graph g = HolmeKim(250, 5, 0.6, 4);
  // total_r = 3, so 3 * 64 = 192 <= 250 vertices → ordered path.
  const std::vector<BatchQuery> small_batch = {{3, 1}, {4, 1}, {5, 1}};
  // total_r = 18 → 1152 > 250 → full-scan path.
  const std::vector<BatchQuery> large_batch = {{3, 5}, {4, 10}, {5, 3}};
  BoundSearcher bound(g);
  TsdIndex tsd = TsdIndex::Build(g);
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    for (const std::vector<BatchQuery>* batch : {&small_batch, &large_batch}) {
      BoundSearcher batch_bound(g);
      batch_bound.set_query_options(QueryOptions{threads, 0});
      const std::vector<TopRResult> bound_results =
          batch_bound.SearchBatch(*batch);
      ASSERT_EQ(bound_results.size(), batch->size());
      TsdIndex batch_tsd = TsdIndex::Build(g);
      batch_tsd.set_query_options(QueryOptions{threads, 0});
      const std::vector<TopRResult> tsd_results =
          batch_tsd.SearchBatch(*batch);
      ASSERT_EQ(tsd_results.size(), batch->size());
      for (std::size_t q = 0; q < batch->size(); ++q) {
        const BatchQuery& query = (*batch)[q];
        const std::string label = "threads=" + std::to_string(threads) +
                                  " k=" + std::to_string(query.k) + " r=" +
                                  std::to_string(query.r);
        ExpectSameEntries(bound_results[q], bound.TopR(query.r, query.k),
                          "bound " + label);
        ExpectSameEntries(tsd_results[q], tsd.TopR(query.r, query.k),
                          "tsd " + label);
      }
    }
  }
}

// The ScoreOrdered ramp knobs trade round-barrier overhead against
// overshoot; the ranking is bit-identical for every setting.
TEST(TrussPlanSearcherTest, RampOptionsDoNotChangeResults) {
  const Graph g = HolmeKim(250, 5, 0.6, 4);
  BoundSearcher reference(g);
  const TopRResult expected = reference.TopR(10, 4);
  for (const std::uint32_t base : {1u, 2u, 16u}) {
    for (const std::uint32_t growth : {2u, 4u}) {
      BoundSearcher searcher(g);
      QueryOptions options;
      options.num_threads = 4;
      options.ramp_base_per_thread = base;
      options.ramp_growth = growth;
      searcher.set_query_options(options);
      ExpectSameEntries(searcher.TopR(10, 4), expected,
                        "base=" + std::to_string(base) + " growth=" +
                            std::to_string(growth));
    }
  }
}

}  // namespace
}  // namespace tsd
