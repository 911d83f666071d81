// Differential suite for the batch query engine: SearchBatch over a batch
// of (k, r) queries must be bit-identical — vertices, scores, AND contexts
// — to the per-query TopR loop, for every searcher, at 1, 2, and 8 worker
// threads (extending the PR 1 determinism suite to the batch path). Batches
// are randomized from a seeded generator and include duplicate queries,
// repeated thresholds, and thresholds nothing survives.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/baselines.h"
#include "core/batch_query.h"
#include "core/bound_search.h"
#include "core/dynamic_tsd_index.h"
#include "core/gct_index.h"
#include "core/hybrid_search.h"
#include "core/online_search.h"
#include "core/query_scratch.h"
#include "core/scoring.h"
#include "core/tsd_index.h"
#include "graph/ego_network.h"
#include "graph/generators.h"
#include "truss/ego_truss.h"

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

/// A seeded random batch: k in [2, 6], r skewed small, with duplicates.
std::vector<BatchQuery> RandomBatch(std::uint64_t seed, std::size_t size) {
  Rng rng(seed);
  std::vector<BatchQuery> batch;
  batch.reserve(size);
  const std::uint32_t r_choices[] = {1, 3, 10, 17};
  for (std::size_t i = 0; i < size; ++i) {
    BatchQuery query;
    query.k = 2 + static_cast<std::uint32_t>(rng.Uniform(5));
    query.r = r_choices[rng.Uniform(4)];
    batch.push_back(query);
    if (i + 1 < size && rng.Uniform(4) == 0) {
      batch.push_back(query);  // exact duplicate query
      ++i;
    }
  }
  return batch;
}

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

class BatchDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchDifferentialTest, BatchMatchesPerQuerySearchAtAnyThreadCount) {
  const GraphCase test_case = TestGraphs()[GetParam()];
  SearcherSet searchers(test_case.graph);

  for (DiversitySearcher* searcher : searchers.All()) {
    for (std::uint64_t seed : {11u, 23u}) {
      const std::vector<BatchQuery> batch =
          RandomBatch(seed + GetParam() * 100, /*size=*/5);

      // Sequential per-query ground truth.
      searcher->set_query_options(QueryOptions{});
      std::vector<TopRResult> reference;
      for (const BatchQuery& query : batch) {
        reference.push_back(searcher->TopR(query.r, query.k));
      }

      for (std::uint32_t threads : {1u, 2u, 8u}) {
        QueryOptions options;
        options.num_threads = threads;
        searcher->set_query_options(options);
        const std::vector<TopRResult> results = searcher->SearchBatch(batch);
        ASSERT_EQ(results.size(), batch.size());
        for (std::size_t q = 0; q < batch.size(); ++q) {
          ExpectSameEntries(
              reference[q], results[q],
              test_case.name + " method=" + searcher->name() +
                  " seed=" + std::to_string(seed) +
                  " k=" + std::to_string(batch[q].k) +
                  " r=" + std::to_string(batch[q].r) +
                  " threads=" + std::to_string(threads));
        }
      }
      searcher->set_query_options(QueryOptions{});
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, BatchDifferentialTest,
                         ::testing::Range(0, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return TestGraphs()[info.param].name;
                         });

// The dynamic index answers batches with the TSD multi-k slice sweep over
// its maintained forest slices; it must stay bit-identical to per-query
// TopR at any thread count, including after maintenance updates.
TEST(BatchDifferentialTest, DynamicIndexAmortizedBatchPathMatches) {
  const Graph g = HolmeKim(150, 5, 0.5, 7);
  DynamicTsdIndex dynamic(g);
  const std::vector<BatchQuery> batch = {{4, 5}, {2, 10}, {4, 5}, {3, 1}};
  auto check = [&](const std::string& label) {
    std::vector<TopRResult> reference;
    for (const BatchQuery& query : batch) {
      reference.push_back(dynamic.TopR(query.r, query.k));
    }
    for (std::uint32_t threads : {1u, 2u, 8u}) {
      dynamic.set_query_options(QueryOptions{threads, 0});
      const std::vector<TopRResult> results = dynamic.SearchBatch(batch);
      ASSERT_EQ(results.size(), batch.size());
      for (std::size_t q = 0; q < batch.size(); ++q) {
        ExpectSameEntries(reference[q], results[q],
                          label + " q=" + std::to_string(q) +
                              " threads=" + std::to_string(threads));
      }
    }
    dynamic.set_query_options(QueryOptions{});
  };
  check("dynamic");
  dynamic.InsertEdge(0, 149);
  dynamic.RemoveEdge(0, 1);
  check("dynamic-after-updates");
}

// Degenerate batches: empty, single query, every threshold dead (score 0
// everywhere), and r larger than the graph.
TEST(BatchDifferentialTest, DegenerateBatches) {
  const Graph g = PaperFigure1Graph();
  OnlineSearcher online(g);

  EXPECT_TRUE(online.SearchBatch({}).empty());

  const std::vector<BatchQuery> batch = {
      {4, 1}, {9, 3}, {2, 200}, {5, 1}};
  std::vector<TopRResult> reference;
  for (const BatchQuery& query : batch) {
    reference.push_back(
        online.TopR(std::min(query.r, g.num_vertices()), query.k));
  }
  // r is clamped by the collector only through the candidate count, so pass
  // the clamped r to both sides.
  std::vector<BatchQuery> clamped = batch;
  for (BatchQuery& query : clamped) {
    query.r = std::min(query.r, g.num_vertices());
  }
  const std::vector<TopRResult> results = online.SearchBatch(clamped);
  ASSERT_EQ(results.size(), clamped.size());
  for (std::size_t q = 0; q < clamped.size(); ++q) {
    ExpectSameEntries(reference[q], results[q],
                      "degenerate q=" + std::to_string(q));
  }
}

// The multi-threshold sweep must reproduce ScoreFromEgoTrussness exactly,
// vertex by vertex, threshold by threshold.
TEST(MultiKEgoScorerTest, MatchesSingleThresholdScoring) {
  const Graph g = HolmeKim(120, 5, 0.6, 9);
  EgoNetworkExtractor extractor(g);
  EgoTrussDecomposer decomposer(EgoTrussMethod::kHash);
  MultiKEgoScorer scorer;
  const std::vector<std::uint32_t> thresholds = {7, 5, 4, 3, 2};
  std::vector<std::uint32_t> scores(thresholds.size());
  EgoNetwork ego;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    extractor.ExtractInto(v, &ego);
    const std::vector<std::uint32_t> trussness = decomposer.Compute(ego);
    scorer.Compute(ego, trussness, thresholds, scores.data());
    for (std::size_t t = 0; t < thresholds.size(); ++t) {
      EXPECT_EQ(scores[t],
                ScoreFromEgoTrussness(ego, trussness, thresholds[t],
                                      /*want_contexts=*/false)
                    .score)
          << "v=" << v << " k=" << thresholds[t];
    }
  }
}

// The single-pass Hybrid construction must produce bit-identical rankings
// at any thread count (the chunk merge feeds a total-order sort over unique
// vertices), observable through TopR answers for every k and r.
TEST(BatchDifferentialTest, HybridParallelConstructionBitIdentical) {
  const Graph g = HolmeKim(250, 5, 0.6, 12);
  const GctIndex gct = GctIndex::Build(g);
  HybridSearcher sequential(g, gct);
  for (std::uint32_t threads : {2u, 8u}) {
    HybridSearcher parallel(g, gct, threads);
    EXPECT_EQ(parallel.SizeBytes(), sequential.SizeBytes());
    for (std::uint32_t k : {2u, 3u, 4u, 5u, 6u}) {
      for (std::uint32_t r : {1u, 5u, 16u}) {
        ExpectSameEntries(sequential.TopR(r, k), parallel.TopR(r, k),
                          "hybrid construction threads=" +
                              std::to_string(threads) +
                              " k=" + std::to_string(k) +
                              " r=" + std::to_string(r));
      }
    }
  }
}

// Repeated batches over one pipeline must reuse the per-worker scratch:
// after a warm-up batch the workspace's reserved capacity stays flat (the
// steady state performs no new scratch allocation).
TEST(BatchWorkspaceReuseTest, SteadyStateCapacityIsFlat) {
  const Graph g = HolmeKim(200, 5, 0.6, 10);
  QueryPipeline pipeline(g, EgoTrussMethod::kHash, QueryOptions{});
  const std::vector<BatchQuery> queries = {{2, 5}, {3, 5}, {4, 5}, {5, 2}};
  auto run = [&] {
    BatchQueryRunner runner(queries);
    runner.RunEgoScan(pipeline, g.num_vertices());
  };
  run();  // warm-up: scratch grows to its high-water mark
  const std::size_t high_water =
      pipeline.workspace(0).scratch_capacity_bytes();
  EXPECT_GT(high_water, 0u);
  for (int i = 0; i < 5; ++i) run();
  EXPECT_EQ(pipeline.workspace(0).scratch_capacity_bytes(), high_water);
}

// The single-k searchers hold the same property: repeated online and bound
// TopR calls — score phase, context phase, and the ego floor kernel's
// scratch inside both — allocate nothing new in the session's workspace
// once warm.
TEST(BatchWorkspaceReuseTest, RepeatedOnlineAndBoundTopRDoNotGrowScratch) {
  const Graph g = HolmeKim(200, 5, 0.6, 10);
  const OnlineSearcher online(g);
  const BoundSearcher bound(g);
  QuerySession session;
  QueryWorkspace& workspace =
      session.PipelineFor(g, EgoTrussMethod::kHash).workspace(0);
  auto run = [&] {
    for (std::uint32_t k : {2u, 3u, 4u, 5u}) {
      online.TopR(5, k, session);
      bound.TopR(5, k, session);
    }
  };
  run();  // warm-up
  const std::size_t high_water = workspace.scratch_capacity_bytes();
  EXPECT_GT(high_water, 0u);
  for (int i = 0; i < 3; ++i) run();
  EXPECT_EQ(workspace.scratch_capacity_bytes(), high_water);
}

// Satellite of the same property at the index layer: repeated TSD / GCT
// score and context queries through one IndexQueryScratch allocate nothing
// new once warm.
TEST(BatchWorkspaceReuseTest, RepeatedIndexQueriesDoNotGrowScratch) {
  const Graph g = HolmeKim(200, 5, 0.6, 11);
  const TsdIndex tsd = TsdIndex::Build(g);
  const GctIndex gct = GctIndex::Build(g);
  IndexQueryScratch scratch;
  auto run_all = [&] {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (std::uint32_t k : {2u, 3u, 4u}) {
        tsd.Score(v, k, scratch);
        tsd.ScoreWithContexts(v, k, scratch);
        gct.ScoreWithContexts(v, k, scratch);
      }
    }
  };
  run_all();  // warm-up
  const std::size_t high_water = scratch.capacity_bytes();
  EXPECT_GT(high_water, 0u);
  for (int i = 0; i < 3; ++i) run_all();
  EXPECT_EQ(scratch.capacity_bytes(), high_water);
}

// The dynamic index's hot path holds the same property: Score and
// ScoreWithContexts through one IndexQueryScratch allocate nothing new
// once warm — including across updates, since rebuilt forest slices stay
// within the same universe and the scratch high-water mark already covers
// the largest per-vertex forest.
TEST(BatchWorkspaceReuseTest, DynamicIndexQueriesDoNotGrowScratch) {
  const Graph g = HolmeKim(200, 5, 0.6, 11);
  DynamicTsdIndex dynamic(g);
  IndexQueryScratch scratch;
  auto run_all = [&] {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (std::uint32_t k : {2u, 3u, 4u}) {
        dynamic.Score(v, k, scratch);
        dynamic.ScoreWithContexts(v, k, scratch);
      }
    }
  };
  run_all();  // warm-up
  const std::size_t high_water = scratch.capacity_bytes();
  EXPECT_GT(high_water, 0u);
  for (int i = 0; i < 3; ++i) run_all();
  EXPECT_EQ(scratch.capacity_bytes(), high_water);

  // Steady state survives live churn: updates rebuild forests but queries
  // still reuse the warmed scratch.
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    const VertexId u = static_cast<VertexId>(rng.Uniform(g.num_vertices()));
    const VertexId v = static_cast<VertexId>(rng.Uniform(g.num_vertices()));
    if (i % 3 == 0) {
      dynamic.RemoveEdge(u, v);
    } else {
      dynamic.InsertEdge(u, v);
    }
  }
  run_all();
  EXPECT_GE(scratch.capacity_bytes(), high_water);
  const std::size_t churned_high_water = scratch.capacity_bytes();
  for (int i = 0; i < 3; ++i) run_all();
  EXPECT_EQ(scratch.capacity_bytes(), churned_high_water);
}

}  // namespace
}  // namespace tsd
