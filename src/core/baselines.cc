#include "core/baselines.h"

#include <algorithm>
#include <unordered_set>

#include "common/rng.h"
#include "common/timer.h"
#include "core/query_pipeline.h"
#include "core/scoring.h"
#include "core/top_r_collector.h"
#include "graph/ego_network.h"

namespace tsd {
namespace {

/// Shared bound-ordered top-r loop for the two ego-decomposition baselines,
/// run on the common QueryPipeline. `score_fn(ego, want_contexts)` evaluates
/// the model on one extracted ego-network.
template <typename ScoreFn>
TopRResult DegreeBoundedTopR(QueryPipeline& pipeline, const Graph& graph,
                             std::uint32_t r, std::uint32_t divisor,
                             ScoreFn&& score_fn) {
  WallTimer total;
  TopRResult result;
  const VertexId n = graph.num_vertices();

  // Degree bound: each context needs at least `divisor` members.
  std::vector<std::uint32_t> bounds(n);
  pipeline.ForEach(n, [&](QueryWorkspace&, std::uint64_t v) {
    bounds[v] = graph.degree(static_cast<VertexId>(v)) / divisor;
  });

  TopRCollector collector(r);
  TopRCollector* const collectors[] = {&collector};
  {
    ScopedTimer t(&result.stats.score_seconds);
    result.stats.vertices_scored = pipeline.ScoreOrdered(
        bounds, collectors,
        [&](QueryWorkspace& ws, VertexId v, std::uint32_t* score) {
          *score = score_fn(ws.ExtractEgo(v), /*want_contexts=*/false).score;
        });
  }
  {
    ScopedTimer t(&result.stats.context_seconds);
    pipeline.MaterializeEntries(
        collector.Ranked(), &result.entries,
        [&](QueryWorkspace& ws, VertexId v) {
          return score_fn(ws.ExtractEgo(v), /*want_contexts=*/true).contexts;
        });
  }
  result.stats.threads_used = pipeline.num_threads();
  result.stats.total_seconds = total.Seconds();
  return result;
}

}  // namespace

TopRResult CompDivSearcher::TopR(std::uint32_t r, std::uint32_t k,
                                 QuerySession& session) const {
  TSD_CHECK(r >= 1);
  TSD_CHECK(k >= 1);
  // Neither baseline needs a truss decomposer; the workspaces only serve
  // ego extraction scratch.
  QueryPipeline& pipeline =
      session.PipelineFor(graph_, EgoTrussMethod::kHash);
  return DegreeBoundedTopR(
      pipeline, graph_, r, std::max(1U, k),
      [k](EgoNetwork& ego, bool want_contexts) {
        return ScoreComponents(ego, k, want_contexts);
      });
}

TopRResult CoreDivSearcher::TopR(std::uint32_t r, std::uint32_t k,
                                 QuerySession& session) const {
  TSD_CHECK(r >= 1);
  TSD_CHECK(k >= 1);
  QueryPipeline& pipeline =
      session.PipelineFor(graph_, EgoTrussMethod::kHash);
  // A k-core has at least k+1 vertices.
  return DegreeBoundedTopR(
      pipeline, graph_, r, k + 1,
      [k](EgoNetwork& ego, bool want_contexts) {
        return ScoreKCores(ego, k, want_contexts);
      });
}

std::vector<VertexId> RandomSelect(const Graph& graph, std::uint32_t r,
                                   std::uint64_t seed) {
  TSD_CHECK(r <= graph.num_vertices());
  Rng rng(seed);
  std::unordered_set<VertexId> chosen;
  std::vector<VertexId> out;
  out.reserve(r);
  while (out.size() < r) {
    const auto v = static_cast<VertexId>(rng.Uniform(graph.num_vertices()));
    if (chosen.insert(v).second) out.push_back(v);
  }
  return out;
}

}  // namespace tsd
