// The bound searcher's preprocess, layer by layer:
//  * the marked-scan triangle kernel (internal::ForEachTriangleInRange)
//    emits the same (u, v, w, edges) sequence as the rank-merge forward
//    algorithm kept in reference_impls.h, and leaves its mark array zero;
//  * the counting kernels built on it agree at 1, 2 and 8 threads and on
//    the shared-atomic path a scratch budget of 0 forces;
//  * KTrussAtFloor's m_v output equals TrianglesPerVertex of its result, and
//    its edges_recounted report equals the source edges that clear the
//    support cut, at every thread count under every plan;
//  * bound TopR and SearchBatch at the largest k agree with online search,
//    and carry edges_recounted into SearchStats thread-invariantly.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/bound_search.h"
#include "core/online_search.h"
#include "core/types.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/triangle.h"
#include "reference_impls.h"
#include "truss/k_truss.h"
#include "truss/truss_decomposition.h"
#include "truss/truss_plan.h"

namespace tsd {
namespace {

struct GraphCase {
  std::string name;
  Graph graph;
};

// The five graphs of the truss differential suites.
std::vector<GraphCase> TestGraphs() {
  std::vector<GraphCase> cases;
  cases.push_back({"figure1", PaperFigure1Graph()});
  cases.push_back({"er", ErdosRenyi(80, 500, 3)});
  cases.push_back({"hk", HolmeKim(250, 5, 0.6, 4)});
  cases.push_back({"ba", BarabasiAlbert(200, 4, 5)});
  cases.push_back({"rmat", RMat(8, 6, 0.45, 0.2, 0.2, 6)});
  return cases;
}

Graph Clique(VertexId n) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return Graph::FromEdges(std::move(edges), n);
}

Graph Star(VertexId leaves) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 1; v <= leaves; ++v) edges.emplace_back(0, v);
  return Graph::FromEdges(std::move(edges), leaves + 1);
}

// The five graphs plus the shapes with no or only trivial intersections.
std::vector<GraphCase> KernelGraphs() {
  std::vector<GraphCase> cases = TestGraphs();
  cases.push_back({"k7", Clique(7)});
  cases.push_back({"star", Star(12)});
  cases.push_back({"empty", Graph::FromEdges({}, 5)});
  return cases;
}

std::vector<std::pair<VertexId, VertexId>> EdgesOf(const Graph& g) {
  std::vector<std::pair<VertexId, VertexId>> out;
  for (const Edge& edge : g.edges()) out.emplace_back(edge.u, edge.v);
  return out;
}

using Triangle = std::tuple<VertexId, VertexId, VertexId, EdgeId, EdgeId,
                            EdgeId>;

template <typename ForEachFn>
std::vector<Triangle> Listing(ForEachFn&& for_each) {
  std::vector<Triangle> out;
  for_each([&](VertexId u, VertexId v, VertexId w, EdgeId e_uv, EdgeId e_uw,
               EdgeId e_vw) { out.emplace_back(u, v, w, e_uv, e_uw, e_vw); });
  return out;
}

std::vector<Triangle> OracleListing(const Graph& g) {
  return Listing([&](auto&& fn) { testing::MergeForEachTriangle(g, fn); });
}

std::vector<ParallelConfig> ThreadConfigs() {
  return {ParallelConfig{1, 0}, ParallelConfig{2, 0}, ParallelConfig{2, 5},
          ParallelConfig{8, 0}};
}

std::vector<TrussPlanAlgorithm> Plans() {
  return {TrussPlanAlgorithm::kBsp, TrussPlanAlgorithm::kCoreThenTruss,
          TrussPlanAlgorithm::kAuto};
}

// ------------------------------------------------ the marked-scan kernel

TEST(MarkedTriangleKernelTest, SequenceEqualsMergeOracle) {
  for (const GraphCase& test_case : KernelGraphs()) {
    const Graph& g = test_case.graph;
    const std::vector<Triangle> expected = OracleListing(g);
    EXPECT_EQ(Listing([&](auto&& fn) { ForEachTriangle(g, fn); }), expected)
        << test_case.name;
    EXPECT_EQ(expected.size(), testing::NaiveTriangleCount(g))
        << test_case.name;
  }
}

// The parallel kernels hand each worker ordered sub-ranges of [0, n) and
// one mark array for all of them: the concatenated sub-range listings must
// be the full listing, and the marks must be all zero after every call.
TEST(MarkedTriangleKernelTest, SubRangesShareOneZeroedMarkArray) {
  for (const GraphCase& test_case : KernelGraphs()) {
    const Graph& g = test_case.graph;
    const internal::ForwardAdjacency fwd(g);
    const VertexId n = g.num_vertices();
    std::vector<EdgeId> marks;
    std::vector<Triangle> listing;
    for (VertexId begin = 0; begin < n; begin += 7) {
      const VertexId end = std::min<VertexId>(n, begin + 7);
      const std::vector<Triangle> part = Listing([&](auto&& fn) {
        internal::ForEachTriangleInRange(fwd, begin, end, marks, fn);
      });
      listing.insert(listing.end(), part.begin(), part.end());
      EXPECT_EQ(marks, std::vector<EdgeId>(n, 0))
          << test_case.name << " after [" << begin << ", " << end << ")";
    }
    EXPECT_EQ(listing, OracleListing(g)) << test_case.name;
  }
}

TEST(MarkedTriangleKernelTest, CountsAreThreadAndBudgetInvariant) {
  for (const GraphCase& test_case : KernelGraphs()) {
    const Graph& g = test_case.graph;
    const std::vector<std::uint32_t> support = testing::NaiveSupport(g);
    std::vector<std::uint64_t> per_vertex(g.num_vertices(), 0);
    for (const Triangle& t : OracleListing(g)) {
      ++per_vertex[std::get<0>(t)];
      ++per_vertex[std::get<1>(t)];
      ++per_vertex[std::get<2>(t)];
    }
    const std::uint64_t total = testing::NaiveTriangleCount(g);
    const internal::ForwardAdjacency fwd(g);
    for (const std::uint32_t threads : {1u, 2u, 8u}) {
      const ParallelConfig config{threads, 0};
      const std::string label =
          test_case.name + " threads=" + std::to_string(threads);
      EXPECT_EQ(ComputeSupport(g, config), support) << label;
      EXPECT_EQ(TrianglesPerVertex(g, config), per_vertex) << label;
      EXPECT_EQ(CountTriangles(g, config), total) << label;
      for (const std::uint64_t budget :
           {std::uint64_t{0}, internal::kCountingScratchBudgetBytes}) {
        EXPECT_EQ(internal::SupportFromForward(fwd, g.num_edges(), config,
                                               budget),
                  support)
            << label << " budget=" << budget;
        EXPECT_EQ(internal::TrianglesPerVertexFromForward(
                      fwd, g.num_vertices(), config, budget),
                  per_vertex)
            << label << " budget=" << budget;
      }
    }
  }
}

// ------------------------------------------------ KTrussAtFloor outputs

// The source edges that clear the support cut: after the core prune when
// the plan resolved to CoreThenTruss, with at least floor − 2 triangles.
std::uint64_t EdgesClearingCut(const Graph& g, std::uint32_t floor,
                               const TrussPlanStats& stats) {
  const internal::CorePrunedGraph pruned =
      stats.algorithm == TrussPlanAlgorithm::kCoreThenTruss
          ? internal::PruneByCoreBound(g, floor)
          : internal::CorePrunedGraph{};
  const Graph& source = pruned.edges_pruned > 0 ? pruned.graph : g;
  const std::uint32_t min_support = floor < 2 ? 0 : floor - 2;
  std::uint64_t kept = 0;
  for (const std::uint32_t s : testing::NaiveSupport(source)) {
    kept += s >= min_support ? 1 : 0;
  }
  return kept;
}

class KTrussAtFloorOutputsTest : public ::testing::TestWithParam<int> {};

TEST_P(KTrussAtFloorOutputsTest, EgoEdgesAndRecountedEdges) {
  const GraphCase test_case = KernelGraphs()[GetParam()];
  const Graph& g = test_case.graph;
  const TrussDecomposition full(g);
  for (std::uint32_t floor = 2; floor <= full.max_trussness() + 1; ++floor) {
    const std::vector<EdgeId> expected_edges =
        KTrussEdges(g, full.edge_trussness(), floor);
    for (const TrussPlanAlgorithm plan : Plans()) {
      std::uint64_t recounted_at_one_thread = 0;
      for (ParallelConfig config : ThreadConfigs()) {
        config.truss_plan = plan;
        const std::string label =
            test_case.name + " plan=" + TrussPlanAlgorithmName(plan) +
            " floor=" + std::to_string(floor) +
            " threads=" + std::to_string(config.num_threads);
        TrussPlanStats stats;
        std::vector<std::uint64_t> ego_edges;
        const Graph truss = KTrussAtFloor(g, floor, config, &stats, &ego_edges);
        EXPECT_EQ(truss.num_edges(), expected_edges.size()) << label;
        EXPECT_EQ(truss.num_vertices(), g.num_vertices()) << label;
        EXPECT_EQ(ego_edges, TrianglesPerVertex(truss)) << label;
        EXPECT_EQ(stats.edges_recounted, EdgesClearingCut(g, floor, stats))
            << label;
        EXPECT_GE(stats.edges_recounted, truss.num_edges()) << label;
        if (config.num_threads == 1) {
          recounted_at_one_thread = stats.edges_recounted;
        }
        EXPECT_EQ(stats.edges_recounted, recounted_at_one_thread) << label;
        // Asking for m_v does not change the result or the report.
        TrussPlanStats plain_stats;
        EXPECT_EQ(EdgesOf(KTrussAtFloor(g, floor, config, &plain_stats)),
                  EdgesOf(truss))
            << label;
        EXPECT_EQ(plain_stats.edges_recounted, stats.edges_recounted)
            << label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphs, KTrussAtFloorOutputsTest,
    ::testing::Range(0, static_cast<int>(KernelGraphs().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      return KernelGraphs()[info.param].name;
    });

// ------------------------------------------------ the bound searcher

std::vector<std::vector<std::uint64_t>> Flatten(const TopRResult& result) {
  std::vector<std::vector<std::uint64_t>> out;
  for (const TopREntry& entry : result.entries) {
    out.push_back({entry.vertex, entry.score});
    for (const auto& context : entry.contexts) {
      out.emplace_back(context.begin(), context.end());
    }
  }
  return out;
}

// k + 1 used to wrap to floor 0 at the largest k, keeping and counting the
// whole graph. The saturated floor leaves an empty reduced graph, and the
// answers stay online's (every score is 0).
TEST(BoundSearchFloorTest, LargestKMatchesOnline) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  for (const GraphCase& test_case : TestGraphs()) {
    const Graph& g = test_case.graph;
    OnlineSearcher online(g);
    const BoundSearcher bound(g);
    const std::vector<BatchQuery> queries = {{kMax, 5}, {kMax - 1, 3}};
    const std::vector<TopRResult> online_batch = online.SearchBatch(queries);
    for (const std::uint32_t threads : {1u, 8u}) {
      QuerySession session;
      session.set_options(QueryOptions{threads, 0});
      const std::string label =
          test_case.name + " threads=" + std::to_string(threads);
      const TopRResult result = bound.TopR(5, kMax, session);
      EXPECT_EQ(Flatten(result), Flatten(online.TopR(5, kMax))) << label;
      EXPECT_EQ(result.stats.edges_recounted, 0u) << label;
      const std::vector<TopRResult> batch =
          bound.SearchBatch(queries, session);
      ASSERT_EQ(batch.size(), online_batch.size()) << label;
      for (std::size_t q = 0; q < batch.size(); ++q) {
        EXPECT_EQ(Flatten(batch[q]), Flatten(online_batch[q]))
            << label << " query " << q;
      }
    }
  }
}

// SearchStats::edges_recounted is KTrussAtFloor's report at the bound floor
// (k + 1 for TopR, k_min + 1 for SearchBatch), at any thread count.
TEST(BoundSearchFloorTest, EdgesRecountedIsThreadInvariant) {
  for (const GraphCase& test_case : TestGraphs()) {
    const Graph& g = test_case.graph;
    const BoundSearcher bound(g);
    for (const std::uint32_t k : {3u, 4u, 5u}) {
      TrussPlanStats expected;
      KTrussAtFloor(g, k + 1, ParallelConfig{}, &expected);
      const std::vector<BatchQuery> queries = {{k + 2, 4}, {k, 6}};
      for (const std::uint32_t threads : {1u, 2u, 8u}) {
        QuerySession session;
        session.set_options(QueryOptions{threads, 0});
        const std::string label = test_case.name + " k=" +
                                  std::to_string(k) + " threads=" +
                                  std::to_string(threads);
        EXPECT_EQ(bound.TopR(4, k, session).stats.edges_recounted,
                  expected.edges_recounted)
            << label;
        for (const TopRResult& result : bound.SearchBatch(queries, session)) {
          EXPECT_EQ(result.stats.edges_recounted, expected.edges_recounted)
              << label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace tsd
