#include "core/bound_search.h"

#include <algorithm>
#include <limits>

#include "common/timer.h"
#include "core/batch_query.h"
#include "core/scoring.h"
#include "core/top_r_collector.h"
#include "truss/k_truss.h"
#include "truss/truss_plan.h"

namespace tsd {
namespace {

/// Re-arms the session pipeline to the full graph on every exit path. The
/// pipeline is rebound to a stack-local sparsified graph for the scan; if
/// an exception unwinds past the query, the session's cache must not keep
/// workspaces pointing at the destroyed subgraph (the cache is shared
/// across searchers on the same (graph, method) key, so a later query
/// through another searcher would dereference it).
class PipelineRearm {
 public:
  PipelineRearm(QueryPipeline& pipeline, const Graph& graph)
      : pipeline_(pipeline), graph_(graph) {}
  ~PipelineRearm() { pipeline_.Rebind(graph_); }
  PipelineRearm(const PipelineRearm&) = delete;
  PipelineRearm& operator=(const PipelineRearm&) = delete;

 private:
  QueryPipeline& pipeline_;
  const Graph& graph_;
};

/// The trussness floor of the threshold-k sparsification (Property 1:
/// only edges of trussness ≥ k+1 matter). Saturates at the largest k, where
/// k + 1 would wrap to 0 and keep the whole graph; no graph has a
/// UINT32_MAX-truss, so the saturated floor leaves it empty.
std::uint32_t BoundFloor(std::uint32_t k) {
  return k == std::numeric_limits<std::uint32_t>::max() ? k : k + 1;
}

}  // namespace

std::uint32_t BoundSearcher::UpperBound(std::uint32_t degree,
                                        std::uint64_t m_v, std::uint32_t k) {
  const std::uint64_t min_context_edges =
      static_cast<std::uint64_t>(k) * (k - 1) / 2;
  const std::uint64_t by_vertices = degree / k;
  const std::uint64_t by_edges = m_v / min_context_edges;
  // The minimum is bounded by degree/k, so it always fits 32 bits; taking
  // it in 64 bits first is what keeps a >2^32 ego edge count from wrapping.
  return static_cast<std::uint32_t>(std::min(by_vertices, by_edges));
}

std::vector<std::uint32_t> BoundSearcher::UpperBounds(
    const Graph& graph, const std::vector<std::uint64_t>& ego_edge_counts,
    std::uint32_t k) {
  TSD_CHECK(k >= 2);
  TSD_CHECK_MSG(ego_edge_counts.size() == graph.num_vertices(),
                "UpperBounds needs one ego edge count per vertex: got "
                    << ego_edge_counts.size() << " for "
                    << graph.num_vertices() << " vertices");
  std::vector<std::uint32_t> bounds(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    bounds[v] = UpperBound(graph.degree(v), ego_edge_counts[v], k);
  }
  return bounds;
}

TopRResult BoundSearcher::TopR(std::uint32_t r, std::uint32_t k,
                               QuerySession& session) const {
  TSD_CHECK(r >= 1);
  TSD_CHECK(k >= 2);
  WallTimer total;
  TopRResult result;

  // The session's pipeline is cached against the full graph and rebound to
  // the per-query sparsified subgraph below, so workspace scratch survives
  // across queries.
  QueryPipeline& pipeline = session.PipelineFor(graph_, method_);
  PipelineRearm rearm(pipeline, graph_);

  // --- Preprocessing: sparsification + bounds (lines 1–4 of Algorithm 4).
  Graph reduced;
  std::vector<std::uint32_t> bounds;
  {
    ScopedTimer t(&result.stats.preprocess_seconds);
    // Property 1: only edges with τ_G(e) ≥ k+1 can contribute, so the
    // preprocess peels straight to the (k+1)-truss instead of decomposing
    // every level, and takes the m_v counts from the peel's final supports.
    // The support counts run on the same thread knobs as the scan phases,
    // and the session's truss plan may prune below the floor first
    // (CoreThenTruss drops core-bounded edges before any triangle
    // counting).
    const ParallelConfig config = ToParallelConfig(session.options());
    TrussPlanStats truss_stats;
    std::vector<std::uint64_t> ego_edges;
    reduced = KTrussAtFloor(graph_, BoundFloor(k), config, &truss_stats,
                            &ego_edges);
    result.stats.edges_pruned = truss_stats.edges_pruned;
    result.stats.edges_recounted = truss_stats.edges_recounted;
    pipeline.Rebind(reduced);
    bounds.resize(reduced.num_vertices());
    pipeline.ForEach(bounds.size(), [&](QueryWorkspace&, std::uint64_t v) {
      bounds[v] = UpperBound(reduced.degree(static_cast<VertexId>(v)),
                             ego_edges[v], k);
    });
  }

  TopRCollector collector(r);
  TopRCollector* const collectors[] = {&collector};
  {
    ScopedTimer t(&result.stats.score_seconds);
    pipeline.TakeEgoEdgesSupported();
    result.stats.vertices_scored = pipeline.ScoreOrdered(
        bounds, collectors,
        [k](QueryWorkspace& ws, VertexId v, std::uint32_t* score) {
          *score = ws.ScoreEgoAtFloor(v, k, /*want_contexts=*/false).score;
        });
    result.stats.ego_edges_supported = pipeline.TakeEgoEdgesSupported();
  }

  // Materialize the winners' contexts on the reduced graph (identical to
  // the original graph's contexts by Property 1).
  {
    ScopedTimer t(&result.stats.context_seconds);
    pipeline.MaterializeEntries(
        collector.Ranked(), &result.entries,
        [k](QueryWorkspace& ws, VertexId v) {
          return ws.ScoreEgoAtFloor(v, k, /*want_contexts=*/true).contexts;
        });
  }

  // `rearm` rebinds the workspaces to the full graph on return (the
  // reduced graph dies here) — and on any exception unwind above.
  result.stats.threads_used = pipeline.num_threads();
  result.stats.total_seconds = total.Seconds();
  return result;
}

std::vector<TopRResult> BoundSearcher::SearchBatch(
    std::span<const BatchQuery> queries, QuerySession& session) const {
  WallTimer total;
  std::vector<TopRResult> results(queries.size());
  if (queries.empty()) return results;
  SearchStats stats;
  BatchQueryRunner runner(queries);
  QueryPipeline& pipeline = session.PipelineFor(graph_, method_);
  PipelineRearm rearm(pipeline, graph_);

  // The smallest requested k gives the loosest sparsification, which is
  // valid for every batched threshold at once (KTrussAtFloor preserves the
  // vertex-id space, so the candidate range matches the per-query scans).
  const std::uint32_t k_min = runner.thresholds().back();
  Graph reduced;
  std::vector<std::uint32_t> bounds;
  // When every query's r is small, one shared bound order prunes most of
  // the per-candidate ego decompositions: the Lemma 2 bound min(d/k,
  // m_v/C(k,2)) is non-increasing in k, so evaluating it at the smallest
  // requested k upper-bounds every query's score and the ordered scan can
  // stop once every collector prunes. With large r nearly every candidate
  // gets scored anyway, so the m_v counting pass and the scan's O(n log n)
  // sort would not pay for themselves. Entries are bit-identical either
  // way.
  const bool ordered = runner.PrefersOrderedScan(graph_.num_vertices());
  {
    ScopedTimer t(&stats.preprocess_seconds);
    const ParallelConfig config = ToParallelConfig(session.options());
    TrussPlanStats truss_stats;
    std::vector<std::uint64_t> ego_edges;
    reduced = KTrussAtFloor(graph_, BoundFloor(k_min), config, &truss_stats,
                            ordered ? &ego_edges : nullptr);
    stats.edges_pruned = truss_stats.edges_pruned;
    stats.edges_recounted = truss_stats.edges_recounted;
    pipeline.Rebind(reduced);
    if (ordered) {
      bounds.resize(reduced.num_vertices());
      pipeline.ForEach(bounds.size(), [&](QueryWorkspace&, std::uint64_t v) {
        bounds[v] = UpperBound(reduced.degree(static_cast<VertexId>(v)),
                               ego_edges[v], k_min);
      });
    }
  }

  // Exact multi-k scores from one ego decomposition per visited candidate:
  // either the shared bound-ordered scan (small batches) or the full
  // reduced range.
  {
    ScopedTimer t(&stats.score_seconds);
    stats.vertices_scored =
        ordered ? runner.ScanOrdered(
                      pipeline, bounds,
                      [&runner](QueryWorkspace& ws, VertexId v,
                                std::uint32_t* out) {
                        EgoNetwork& ego = ws.DecomposeEgo(v);
                        ws.multi_scorer().Compute(ego, ws.trussness(),
                                                  runner.thresholds(), out);
                      })
                : runner.RunEgoScan(pipeline, reduced.num_vertices());
  }

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
