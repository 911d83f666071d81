// Determinism suite for the shared QueryPipeline: every searcher method
// must return bit-identical TopR results (vertices, scores, contexts) for
// 1, 2, and 8 worker threads, and the parallel results must agree with the
// literal naive definition of the truss model.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "core/baselines.h"
#include "core/batch_query.h"
#include "core/bound_search.h"
#include "core/gct_index.h"
#include "core/hybrid_search.h"
#include "core/online_search.h"
#include "core/query_pipeline.h"
#include "core/tsd_index.h"
#include "graph/ego_network.h"
#include "graph/generators.h"
#include "reference_impls.h"
#include "truss/ego_floor.h"

namespace tsd {
namespace {

struct GraphCase {
  std::string name;
  Graph graph;
};

std::vector<GraphCase> TestGraphs() {
  std::vector<GraphCase> cases;
  cases.push_back({"figure1", PaperFigure1Graph()});
  cases.push_back({"er", ErdosRenyi(80, 500, 3)});
  cases.push_back({"hk", HolmeKim(250, 5, 0.6, 4)});
  cases.push_back({"ba", BarabasiAlbert(200, 4, 5)});
  cases.push_back({"rmat", RMat(8, 6, 0.45, 0.2, 0.2, 6)});
  return cases;
}

/// All seven searchers over one graph, owned together so the index builds
/// happen once per case.
struct SearcherSet {
  explicit SearcherSet(const Graph& g)
      : online(g),
        bound(g),
        tsd(TsdIndex::Build(g)),
        gct(GctIndex::Build(g)),
        hybrid(g, gct),
        comp(g),
        core(g) {}

  std::vector<DiversitySearcher*> All() {
    return {&online, &bound, &tsd, &gct, &hybrid, &comp, &core};
  }

  OnlineSearcher online;
  BoundSearcher bound;
  TsdIndex tsd;
  GctIndex gct;
  HybridSearcher hybrid;
  CompDivSearcher comp;
  CoreDivSearcher core;
};

void ExpectSameEntries(const TopRResult& expected, const TopRResult& actual,
                       const std::string& label) {
  ASSERT_EQ(expected.entries.size(), actual.entries.size()) << label;
  for (std::size_t i = 0; i < expected.entries.size(); ++i) {
    EXPECT_EQ(expected.entries[i].vertex, actual.entries[i].vertex)
        << label << " rank=" << i;
    EXPECT_EQ(expected.entries[i].score, actual.entries[i].score)
        << label << " rank=" << i;
    EXPECT_EQ(expected.entries[i].contexts, actual.entries[i].contexts)
        << label << " rank=" << i;
  }
}

class QueryPipelineDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(QueryPipelineDeterminismTest, AllMethodsBitIdenticalAcrossThreads) {
  const GraphCase test_case = TestGraphs()[GetParam()];
  SearcherSet searchers(test_case.graph);

  for (DiversitySearcher* searcher : searchers.All()) {
    for (std::uint32_t k : {2u, 4u}) {
      for (std::uint32_t r : {1u, 5u, 16u}) {
        searcher->set_query_options(QueryOptions{});
        const TopRResult sequential = searcher->TopR(r, k);
        EXPECT_EQ(sequential.stats.threads_used, 1u);
        for (std::uint32_t threads : {2u, 8u}) {
          QueryOptions options;
          options.num_threads = threads;
          searcher->set_query_options(options);
          const TopRResult parallel = searcher->TopR(r, k);
          EXPECT_EQ(parallel.stats.threads_used, threads);
          ExpectSameEntries(sequential, parallel,
                            test_case.name + " method=" + searcher->name() +
                                " k=" + std::to_string(k) +
                                " r=" + std::to_string(r) +
                                " threads=" + std::to_string(threads));
        }
        searcher->set_query_options(QueryOptions{});
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, QueryPipelineDeterminismTest,
                         ::testing::Range(0, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return TestGraphs()[info.param].name;
                         });

// An explicit non-zero chunk count must not change the ranking either.
TEST(QueryPipelineTest, ExplicitChunkCountsKeepRankingsIdentical) {
  const Graph g = HolmeKim(200, 5, 0.5, 11);
  OnlineSearcher online(g);
  const TopRResult reference = online.TopR(10, 3);
  for (std::uint32_t chunks : {1u, 3u, 64u, 1024u}) {
    QueryOptions options;
    options.num_threads = 4;
    options.num_chunks = chunks;
    online.set_query_options(options);
    ExpectSameEntries(reference, online.TopR(10, 3),
                      "chunks=" + std::to_string(chunks));
  }
}

// The parallel online search must still match the literal paper definition
// (reference_impls.h), not just its own sequential run.
TEST(QueryPipelineTest, ParallelResultsMatchNaiveDefinition) {
  const Graph g = ErdosRenyi(60, 350, 9);
  OnlineSearcher online(g);
  QueryOptions options;
  options.num_threads = 8;
  online.set_query_options(options);
  const std::uint32_t k = 3;
  const TopRResult top = online.TopR(5, k);
  ASSERT_EQ(top.entries.size(), 5u);
  for (const TopREntry& entry : top.entries) {
    const auto [naive_score, naive_contexts] =
        testing::NaiveScore(g, entry.vertex, k);
    EXPECT_EQ(entry.score, naive_score) << "v=" << entry.vertex;
    EXPECT_EQ(entry.contexts.size(), naive_contexts.size())
        << "v=" << entry.vertex;
  }
}

// The ego floor kernel's work counter is a sum over every vertex for the
// online search, so it must not move with the thread count; it must also
// equal the per-vertex kernel's own count, summed.
TEST(QueryPipelineTest, OnlineEgoEdgesSupportedIsThreadInvariant) {
  for (const GraphCase& test_case : TestGraphs()) {
    const Graph& g = test_case.graph;
    OnlineSearcher online(g);
    for (std::uint32_t k : {3u, 4u, 5u}) {
      std::uint64_t expected = 0;
      EgoNetworkExtractor extractor(g);
      EgoFloorPeeler peeler;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        EgoNetwork ego = extractor.Extract(v);
        peeler.Peel(ego, k);
        expected += peeler.edges_supported();
      }
      for (std::uint32_t threads : {1u, 2u, 8u}) {
        QueryOptions options;
        options.num_threads = threads;
        online.set_query_options(options);
        EXPECT_EQ(online.TopR(5, k).stats.ego_edges_supported, expected)
            << test_case.name << " k=" << k << " threads=" << threads;
      }
    }
  }
}

// Bound-pruned methods may score more candidates in parallel rounds, but
// never fewer than the answer set requires, and the sequential scan keeps
// its exact per-vertex early termination (Example 3 of the paper).
TEST(QueryPipelineTest, ParallelPruningIsConservative) {
  const Graph g = PaperFigure1Graph();
  BoundSearcher bound(g);
  const TopRResult sequential = bound.TopR(1, 4);
  EXPECT_EQ(sequential.stats.vertices_scored, 1u);

  QueryOptions options;
  options.num_threads = 4;
  bound.set_query_options(options);
  const TopRResult parallel = bound.TopR(1, 4);
  EXPECT_GE(parallel.stats.vertices_scored, 1u);
  ExpectSameEntries(sequential, parallel, "figure1 bound threads=4");
}

// Direct pipeline exercise: ScoreOrdered builds its own visiting order
// (bound desc, ties by ascending id) and must honour it with both
// sequential and round-based pruning.
TEST(QueryPipelineTest, ScoreOrderedPrunesByBoundOrder) {
  const Graph g = HolmeKim(120, 4, 0.5, 13);
  for (std::uint32_t threads : {1u, 4u}) {
    QueryOptions options;
    options.num_threads = threads;
    QueryPipeline pipeline(g, EgoTrussMethod::kHash, options);

    // Degenerate bounds: all zero. Once the collector holds r zero-score
    // answers with the smallest ids, everything else is prunable.
    std::vector<std::uint32_t> bounds(g.num_vertices(), 0);
    TopRCollector collector(3);
    TopRCollector* const collectors[] = {&collector};
    const std::uint64_t scored = pipeline.ScoreOrdered(
        bounds, collectors,
        [](QueryWorkspace&, VertexId, std::uint32_t* score) { *score = 0; });
    EXPECT_LT(scored, g.num_vertices());
    const auto ranked = collector.Ranked();
    ASSERT_EQ(ranked.size(), 3u);
    EXPECT_EQ(ranked[0].first, 0u);
    EXPECT_EQ(ranked[1].first, 1u);
    EXPECT_EQ(ranked[2].first, 2u);
  }

  // Scattered bounds with ties: bounds[v] = 7v mod 5 peaks at 4 on the ids
  // 2, 7, 12, 17, ..., and every score meets its bound. The sequential
  // scan visits the bound-4 ids in ascending order and stops after three,
  // because an equal-bound candidate with a larger id cannot displace the
  // worst answer.
  std::vector<std::uint32_t> bounds(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) bounds[v] = (7 * v) % 5;
  for (std::uint32_t threads : {1u, 4u}) {
    QueryOptions options;
    options.num_threads = threads;
    QueryPipeline pipeline(g, EgoTrussMethod::kHash, options);
    std::vector<VertexId> visited;
    TopRCollector collector(3);
    TopRCollector* const collectors[] = {&collector};
    const std::uint64_t scored = pipeline.ScoreOrdered(
        bounds, collectors,
        [&](QueryWorkspace&, VertexId v, std::uint32_t* score) {
          if (threads == 1) visited.push_back(v);
          *score = bounds[v];
        });
    if (threads == 1) {
      EXPECT_EQ(scored, 3u);
      EXPECT_EQ(visited, (std::vector<VertexId>{2, 7, 12}));
    }
    EXPECT_EQ(collector.Ranked(),
              (std::vector<std::pair<VertexId, std::uint32_t>>{
                  {2, 4}, {7, 4}, {12, 4}}))
        << "threads=" << threads;
  }
}

// The exact sequential search space of every bound-pruned path on the five
// test graphs: a change to the visiting order, the early-termination test
// or a bound shows up here as a count, even when the ranking survives.
TEST(QueryPipelineTest, SequentialSearchSpaceMatchesRecordedCounts) {
  struct Expected {
    std::string graph;
    std::uint32_t k;
    std::uint32_t r;
    std::uint64_t bound;
    std::uint64_t tsd;
    std::uint64_t comp;
    std::uint64_t core;
  };
  const std::vector<Expected> expected = {
      {"figure1", 3, 1, 1, 1, 1, 1},       {"figure1", 4, 5, 5, 5, 5, 14},
      {"figure1", 5, 10, 10, 10, 10, 10},  {"er", 3, 1, 2, 10, 71, 79},
      {"er", 4, 5, 5, 5, 76, 80},          {"er", 5, 10, 10, 10, 70, 80},
      {"hk", 3, 1, 31, 40, 172, 102},      {"hk", 4, 5, 10, 13, 102, 69},
      {"hk", 5, 10, 10, 10, 69, 178},      {"ba", 3, 1, 8, 9, 46, 53},
      {"ba", 4, 5, 5, 5, 53, 132},         {"ba", 5, 10, 10, 10, 41, 93},
      {"rmat", 3, 1, 49, 49, 117, 126},    {"rmat", 4, 5, 29, 19, 126, 106},
      {"rmat", 5, 10, 10, 10, 106, 164},
  };
  // Bound SearchBatch of {(3, 1), (5, 1)}: Σr × 64 ≤ n on these graphs, so
  // it takes the shared bound-ordered scan.
  const std::map<std::string, std::uint64_t> batch_expected = {
      {"hk", 55}, {"ba", 26}, {"rmat", 90}};
  const std::vector<BatchQuery> batch = {{3, 1}, {5, 1}};

  for (const GraphCase& test_case : TestGraphs()) {
    const Graph& g = test_case.graph;
    BoundSearcher bound(g);
    TsdIndex tsd = TsdIndex::Build(g);
    CompDivSearcher comp(g);
    CoreDivSearcher core(g);
    for (const Expected& e : expected) {
      if (e.graph != test_case.name) continue;
      const std::string label = e.graph + " k=" + std::to_string(e.k) +
                                " r=" + std::to_string(e.r);
      EXPECT_EQ(bound.TopR(e.r, e.k).stats.vertices_scored, e.bound)
          << "bound " << label;
      EXPECT_EQ(tsd.TopR(e.r, e.k).stats.vertices_scored, e.tsd)
          << "tsd " << label;
      EXPECT_EQ(comp.TopR(e.r, e.k).stats.vertices_scored, e.comp)
          << "comp " << label;
      EXPECT_EQ(core.TopR(e.r, e.k).stats.vertices_scored, e.core)
          << "core " << label;
    }
    const auto it = batch_expected.find(test_case.name);
    if (it == batch_expected.end()) continue;
    ASSERT_TRUE(BatchQueryRunner(batch).PrefersOrderedScan(g.num_vertices()))
        << test_case.name;
    const std::vector<TopRResult> results = bound.SearchBatch(batch);
    EXPECT_EQ(results[0].stats.vertices_scored, it->second)
        << "bound batch " << test_case.name;
  }
}

// Thread and chunk counts out of range fail with a one-line diagnostic
// instead of wrapping in a cast, which would turn 4294967296 into 0 threads
// and 4294967297 into one. Only flags are parsed: no pipeline is built.
TEST(QueryOptionsFromFlagsTest, RejectsOutOfRangeThreadAndChunkCounts) {
  const auto parse = [](const std::string& arg) {
    const char* argv[] = {"prog", arg.c_str()};
    return QueryOptionsFromFlags(Flags(2, const_cast<char**>(argv)));
  };
  EXPECT_EQ(parse("--threads=1").num_threads, 1u);
  EXPECT_EQ(parse("--threads=" + std::to_string(kMaxThreadsFlag)).num_threads,
            static_cast<std::uint32_t>(kMaxThreadsFlag));
  EXPECT_EQ(parse("--chunks=0").num_chunks, 0u);
  EXPECT_EQ(parse("--chunks=4294967295").num_chunks, UINT32_MAX);
  const std::vector<std::string> bad_args = {
      "--threads=0",
      "--threads=-1",
      "--threads=4294967296",
      "--threads=4294967297",
      "--threads=99999999999999999999",
      "--threads=" + std::to_string(kMaxThreadsFlag + 1),
      "--chunks=-1",
      "--chunks=4294967296"};
  for (const std::string& bad : bad_args) {
    EXPECT_THROW(parse(bad), FlagError) << bad;
  }
  try {
    parse("--threads=4294967296");
    FAIL() << "no FlagError";
  } catch (const FlagError& e) {
    EXPECT_EQ(std::string(e.what()),
              "--threads must be an integer in [1, " +
                  std::to_string(kMaxThreadsFlag) + "] (got 4294967296)");
  }
}

// TakeRanked must hand out exactly what Ranked() would, best first, and
// leave the collector empty and reusable.
TEST(TopRCollectorTest, TakeRankedMatchesRankedAndEmptiesCollector) {
  TopRCollector collector(4);
  // Scores with ties to exercise the (score desc, id asc) order.
  const std::pair<VertexId, std::uint32_t> offers[] = {
      {7, 3}, {1, 5}, {9, 3}, {4, 5}, {2, 0}, {5, 7}};
  for (const auto& [vertex, score] : offers) collector.Offer(vertex, score);

  const auto snapshot = collector.Ranked();
  const auto taken = collector.TakeRanked();
  EXPECT_EQ(taken, snapshot);
  ASSERT_EQ(taken.size(), 4u);
  EXPECT_EQ(taken[0], (std::pair<VertexId, std::uint32_t>{5, 7}));
  EXPECT_EQ(taken[1], (std::pair<VertexId, std::uint32_t>{1, 5}));
  EXPECT_EQ(taken[2], (std::pair<VertexId, std::uint32_t>{4, 5}));
  EXPECT_EQ(taken[3], (std::pair<VertexId, std::uint32_t>{7, 3}));

  EXPECT_TRUE(collector.empty());
  EXPECT_EQ(collector.size(), 0u);
  EXPECT_TRUE(collector.Ranked().empty());
  EXPECT_FALSE(collector.Full());

  // The emptied collector is reusable.
  collector.Offer(3, 2);
  ASSERT_EQ(collector.Ranked().size(), 1u);
  EXPECT_EQ(collector.Ranked()[0],
            (std::pair<VertexId, std::uint32_t>{3, 2}));
}

}  // namespace
}  // namespace tsd
