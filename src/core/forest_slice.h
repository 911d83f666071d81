// One vertex's TSD forest as a view, and the one kernel set that queries it.
//
// The TSD-index stores, for every vertex v, the maximum spanning forest of
// v's trussness-weighted ego-network, sorted by weight descending (Section
// 5, Algorithms 5–6). TsdIndex keeps every forest in flat arrays and
// DynamicTsdIndex publishes one immutable buffer per vertex; both hand out
// ForestSlice views, and the kernels and drivers below are the only query
// code either index runs:
//   ForestScore             — components of the weight-≥k prefix.
//   ForestScoreWithContexts — the same, with materialized social contexts.
//   ForestScoreUpperBound   — s̃core(v) = ⌊(#edges of weight ≥ k) / (k−1)⌋.
//   ForestScoresForThresholds — score at many k in one prefix sweep.
//   ForestTopR              — the s̃core-ordered scan with early exit.
//   ForestSearchBatch       — one multi-k sweep over every vertex.
// The drivers take the vertex count and a `slice_of(v)` callable, so the
// dynamic index can route every read through the view its one epoch pin
// covers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/timer.h"
#include "core/batch_query.h"
#include "core/query_pipeline.h"
#include "core/query_scratch.h"
#include "core/query_session.h"
#include "core/top_r_collector.h"
#include "core/types.h"

namespace tsd {

/// Non-owning view of one vertex's forest: parallel spans of endpoint ids
/// and weights, sorted by weight descending.
struct ForestSlice {
  std::span<const VertexId> u;
  std::span<const VertexId> v;
  std::span<const std::uint32_t> weight;
  /// Every endpoint id is < universe; the kernels size their dense scratch
  /// map from it.
  VertexId universe = 0;
};

/// Structural diversity score at threshold k (k ≥ 2): by the forest
/// property, |endpoints| − |edges| over the weight-≥k prefix.
std::uint32_t ForestScore(const ForestSlice& slice, std::uint32_t k,
                          IndexQueryScratch& scratch);

/// Score plus the social contexts: members sorted, contexts ordered by
/// smallest member.
ScoreResult ForestScoreWithContexts(const ForestSlice& slice,
                                    std::uint32_t k,
                                    IndexQueryScratch& scratch);

/// The s̃core upper bound (Section 5.2): a maximal connected k-truss
/// contributes at least k−1 forest edges. Always ≥ ForestScore. Inline:
/// TopR evaluates it for every vertex.
inline std::uint32_t ForestScoreUpperBound(const ForestSlice& slice,
                                           std::uint32_t k) {
  TSD_CHECK(k >= 2);
  const auto it = std::partition_point(
      slice.weight.begin(), slice.weight.end(),
      [k](std::uint32_t w) { return w >= k; });
  return static_cast<std::uint32_t>(it - slice.weight.begin()) / (k - 1);
}

/// scores[t] = ForestScore at thresholds[t] (strictly descending): the
/// qualified prefix only grows as the threshold drops, so one sweep serves
/// every k.
void ForestScoresForThresholds(const ForestSlice& slice,
                               std::span<const std::uint32_t> thresholds,
                               IndexQueryScratch& scratch,
                               std::uint32_t* scores);

/// Index-based top-r search (Algorithm 6 with s̃core pruning) over vertices
/// [0, n): bounds for all, then a bound-ordered scan that stops once no
/// remaining bound can enter the top r, then the winners' contexts.
template <typename SliceFn>
TopRResult ForestTopR(VertexId n, const SliceFn& slice_of, std::uint32_t r,
                      std::uint32_t k, QuerySession& session) {
  TSD_CHECK(r >= 1);
  TSD_CHECK(k >= 2);
  WallTimer total;
  TopRResult result;

  // Index-only pipeline: the kernels read forest slices and never touch an
  // ego-network, so workspaces carry no extractor.
  QueryPipeline& pipeline = session.IndexPipeline();

  std::vector<std::uint32_t> bounds(n);
  {
    ScopedTimer t(&result.stats.preprocess_seconds);
    pipeline.ForEach(n, [&](QueryWorkspace&, std::uint64_t v) {
      bounds[v] = ForestScoreUpperBound(slice_of(static_cast<VertexId>(v)), k);
    });
  }

  TopRCollector collector(r);
  TopRCollector* const collectors[] = {&collector};
  {
    ScopedTimer t(&result.stats.score_seconds);
    result.stats.vertices_scored = pipeline.ScoreOrdered(
        bounds, collectors,
        [&](QueryWorkspace& ws, VertexId v, std::uint32_t* score) {
          *score = ForestScore(slice_of(v), k, ws.index_scratch());
        });
  }

  {
    ScopedTimer t(&result.stats.context_seconds);
    pipeline.MaterializeEntries(
        collector.Ranked(), &result.entries,
        [&](QueryWorkspace& ws, VertexId v) {
          return ForestScoreWithContexts(slice_of(v), k, ws.index_scratch())
              .contexts;
        });
  }
  result.stats.threads_used = pipeline.num_threads();
  result.stats.total_seconds = total.Seconds();
  return result;
}

/// Amortized batch path over vertices [0, n): one full-range multi-k sweep
/// scores every requested threshold (a sweep is cheap enough that a bound
/// ordering does not pay for itself), then winners are grouped by vertex
/// for the context phase. Bit-identical to per-query ForestTopR.
template <typename SliceFn>
std::vector<TopRResult> ForestSearchBatch(VertexId n, const SliceFn& slice_of,
                                          std::span<const BatchQuery> queries,
                                          QuerySession& session) {
  WallTimer total;
  std::vector<TopRResult> results(queries.size());
  if (queries.empty()) return results;
  SearchStats stats;
  BatchQueryRunner runner(queries);
  QueryPipeline& pipeline = session.IndexPipeline();

  {
    ScopedTimer t(&stats.score_seconds);
    stats.vertices_scored = runner.Scan(
        pipeline, n,
        [&](QueryWorkspace& ws, VertexId v, std::uint32_t* out) {
          ForestScoresForThresholds(slice_of(v), runner.thresholds(),
                                    ws.index_scratch(), out);
        });
  }

  {
    ScopedTimer t(&stats.context_seconds);
    runner.MaterializeGrouped(
        pipeline, &results, [](QueryWorkspace&, VertexId) {},
        [&](QueryWorkspace& ws, VertexId v, std::uint32_t k) {
          return ForestScoreWithContexts(slice_of(v), k, ws.index_scratch())
              .contexts;
        });
  }

  stats.threads_used = pipeline.num_threads();
  stats.total_seconds = total.Seconds();
  FillBatchStats(&results, stats);
  return results;
}

}  // namespace tsd
