#include "core/online_search.h"

#include "common/timer.h"
#include "core/batch_query.h"
#include "core/scoring.h"
#include "core/top_r_collector.h"

namespace tsd {

ScoreResult OnlineSearcher::ScoreVertex(VertexId v, std::uint32_t k,
                                        bool want_contexts,
                                        QuerySession& session) const {
  // Single-vertex path on workspace 0 of the session's cached pipeline, so
  // repeated calls (tsdtool score) reuse all scratch.
  return Pipeline(session).workspace(0).ScoreEgoAtFloor(v, k, want_contexts);
}

TopRResult OnlineSearcher::TopR(std::uint32_t r, std::uint32_t k,
                                QuerySession& session) const {
  TSD_CHECK(r >= 1);
  TSD_CHECK(k >= 2);
  WallTimer total;
  TopRResult result;
  QueryPipeline& pipeline = Pipeline(session);

  TopRCollector collector(r);
  TopRCollector* const collectors[] = {&collector};
  {
    ScopedTimer t(&result.stats.score_seconds);
    pipeline.TakeEgoEdgesSupported();
    result.stats.vertices_scored = pipeline.ScoreRange(
        graph_.num_vertices(), collectors,
        [k](QueryWorkspace& ws, VertexId v, std::uint32_t* score) {
          *score = ws.ScoreEgoAtFloor(v, k, /*want_contexts=*/false).score;
        });
    result.stats.ego_edges_supported = pipeline.TakeEgoEdgesSupported();
  }

  // Materialize the winners' social contexts (line 8 of Algorithm 3).
  {
    ScopedTimer t(&result.stats.context_seconds);
    pipeline.MaterializeEntries(
        collector.Ranked(), &result.entries,
        [k](QueryWorkspace& ws, VertexId v) {
          return ws.ScoreEgoAtFloor(v, k, /*want_contexts=*/true).contexts;
        });
  }

  result.stats.threads_used = pipeline.num_threads();
  result.stats.total_seconds = total.Seconds();
  return result;
}

std::vector<TopRResult> OnlineSearcher::SearchBatch(
    std::span<const BatchQuery> queries, QuerySession& session) const {
  WallTimer total;
  std::vector<TopRResult> results(queries.size());
  if (queries.empty()) return results;
  SearchStats stats;
  BatchQueryRunner runner(queries);
  QueryPipeline& pipeline = Pipeline(session);

  // One ego decomposition per vertex scores it at every requested k.
  {
    ScopedTimer t(&stats.score_seconds);
    stats.vertices_scored =
        runner.RunEgoScan(pipeline, graph_.num_vertices());
  }

  // Winners grouped by vertex: a vertex ranking in several queries is
  // decomposed once and its contexts derived per k.
  {
    ScopedTimer t(&stats.context_seconds);
    runner.MaterializeGrouped(
        pipeline, &results,
        [](QueryWorkspace& ws, VertexId v) { ws.DecomposeEgo(v); },
        [](QueryWorkspace& ws, VertexId /*v*/, std::uint32_t k) {
          return ScoreFromEgoTrussness(ws.ego(), ws.trussness(), k,
                                       /*want_contexts=*/true,
                                       &ws.component_scratch())
              .contexts;
        });
  }

  stats.threads_used = pipeline.num_threads();
  stats.total_seconds = total.Seconds();
  FillBatchStats(&results, stats);
  return results;
}

}  // namespace tsd
