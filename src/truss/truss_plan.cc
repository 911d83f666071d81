#include "truss/truss_plan.h"

#include <algorithm>
#include <utility>

#include "common/bitmap.h"
#include "common/check.h"
#include "truss/core_decomposition.h"
#include "truss/parallel_truss.h"

namespace tsd {

GraphStatistics ComputeGraphStatistics(const Graph& graph) {
  GraphStatistics stats;
  stats.num_vertices = graph.num_vertices();
  stats.num_edges = graph.num_edges();
  const std::uint64_t n = stats.num_vertices;
  const std::uint64_t m = stats.num_edges;
  if (n == 0) return stats;

  std::uint32_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    max_degree = std::max(max_degree,
                          static_cast<std::uint32_t>(graph.degree(v)));
  }
  stats.max_degree = max_degree;
  stats.average_degree = 2.0 * static_cast<double>(m) / static_cast<double>(n);
  stats.density = n > 1 ? 2.0 * static_cast<double>(m) /
                              (static_cast<double>(n) *
                               static_cast<double>(n - 1))
                        : 0.0;
  stats.degree_skew = stats.average_degree > 0.0
                          ? static_cast<double>(max_degree) /
                                stats.average_degree
                          : 0.0;

  // Degree-sequence h-index via one histogram pass: walk the degrees from
  // the top, accumulating how many vertices have degree ≥ d; the first d
  // reached by the running count is the h-index. d == 0 always qualifies,
  // so the loop terminates with a value.
  std::vector<std::uint64_t> degree_count(std::size_t{max_degree} + 1, 0);
  for (VertexId v = 0; v < n; ++v) ++degree_count[graph.degree(v)];
  std::uint64_t at_least = 0;
  for (std::uint32_t d = max_degree;; --d) {
    at_least += degree_count[d];
    if (at_least >= d) {
      stats.degeneracy_bound = d;
      break;
    }
  }
  return stats;
}

TrussPlanAlgorithm ChooseTrussPlanAlgorithm(const GraphStatistics& stats,
                                            std::uint32_t floor) {
  // A floor above 2 makes the O(n + m) core prefilter worth its price
  // whenever the degree distribution is skewed: skew puts mass below the
  // floor's core bound, and every pruned edge skips its O(ρ) support
  // intersection and all peeling work entirely.
  if (floor > 2 && stats.degree_skew >= 3.0) {
    return TrussPlanAlgorithm::kCoreThenTruss;
  }
  return TrussPlanAlgorithm::kBsp;
}

namespace internal {

std::vector<std::uint32_t> SupportViaBitmaps(const Graph& graph,
                                             const ParallelConfig& config) {
  const VertexId n = graph.num_vertices();
  const EdgeId m = graph.num_edges();
  std::vector<std::uint32_t> support(m, 0);
  if (m == 0) return support;

  // Adjacency bitmaps; each worker fills only its own vertices' rows, so
  // writes are disjoint and the result is independent of scheduling.
  std::vector<Bitmap> bits(n);
  ParallelForChunksIndexed(
      n, EffectiveChunks(config, n), config.num_threads,
      [&](std::uint32_t /*worker*/, std::uint32_t /*chunk*/,
          std::uint64_t begin, std::uint64_t end) {
        for (VertexId v = static_cast<VertexId>(begin); v < end; ++v) {
          bits[v].Resize(n);
          for (const VertexId w : graph.neighbors(v)) bits[v].Set(w);
        }
      });

  // support(u, v) = |N(u) AND N(v)| — disjoint per-edge writes.
  ParallelForChunksIndexed(
      m, EffectiveChunks(config, m), config.num_threads,
      [&](std::uint32_t /*worker*/, std::uint32_t /*chunk*/,
          std::uint64_t begin, std::uint64_t end) {
        for (EdgeId e = static_cast<EdgeId>(begin); e < end; ++e) {
          const auto [u, v] = graph.edge(e);
          support[e] = static_cast<std::uint32_t>(bits[u].AndPopcount(bits[v]));
        }
      });
  return support;
}

TrussPlanStats ResolveTrussPlan(const Graph& graph, const TrussPlan& plan,
                                std::uint32_t floor) {
  TrussPlanStats stats;
  stats.requested = plan.algorithm();
  stats.graph_stats = ComputeGraphStatistics(graph);
  stats.algorithm =
      plan.algorithm() == TrussPlanAlgorithm::kAuto
          ? ChooseTrussPlanAlgorithm(stats.graph_stats, floor)
          : plan.algorithm();
  return stats;
}

CorePrunedGraph PruneByCoreBound(const Graph& graph, std::uint32_t floor) {
  CorePrunedGraph pruned;
  const std::uint32_t core_floor = floor < 2 ? 1 : floor - 1;
  const CoreDecomposition cores(graph);
  auto kept = [&](const Edge& edge) {
    return std::min(cores.core(edge.u), cores.core(edge.v)) >= core_floor;
  };
  for (const Edge& edge : graph.edges()) {
    if (!kept(edge)) ++pruned.edges_pruned;
  }
  if (pruned.edges_pruned == 0) return pruned;

  std::vector<std::pair<VertexId, VertexId>> kept_edges;
  kept_edges.reserve(graph.num_edges() - pruned.edges_pruned);
  for (const Edge& edge : graph.edges()) {
    if (kept(edge)) kept_edges.emplace_back(edge.u, edge.v);
  }
  pruned.graph = Graph::FromEdges(std::move(kept_edges), graph.num_vertices());
  TSD_CHECK(pruned.graph.num_edges() ==
            graph.num_edges() - pruned.edges_pruned);
  return pruned;
}

}  // namespace internal

std::vector<std::uint32_t> TrussnessWithPlan(const Graph& graph,
                                             const TrussPlan& plan,
                                             const ParallelConfig& config,
                                             TrussPlanStats* stats) {
  TrussPlanStats local_stats;
  TrussPlanStats& out = stats != nullptr ? *stats : local_stats;
  // At floor 2 the core prefilter prunes nothing (every edge endpoint has
  // core ≥ 1), so every plan runs the same support count and peel.
  out = internal::ResolveTrussPlan(graph, plan, 2);
  out.bitmap_kernel = internal::BitmapSupportEligible(
      graph.num_vertices(), graph.num_edges(), internal::kBitmapBudgetBytes,
      internal::kGlobalBitmapDensityShift);
  std::vector<std::uint32_t> support =
      out.bitmap_kernel ? internal::SupportViaBitmaps(graph, config)
                        : ComputeSupport(graph, config);
  return TrussnessFromSupport(graph, std::move(support), config);
}

std::optional<TrussPlanAlgorithm> ParseTrussPlanAlgorithm(
    std::string_view name) {
  if (name == "auto") return TrussPlanAlgorithm::kAuto;
  if (name == "bsp") return TrussPlanAlgorithm::kBsp;
  if (name == "core-truss") return TrussPlanAlgorithm::kCoreThenTruss;
  return std::nullopt;
}

std::string TrussPlanAlgorithmName(TrussPlanAlgorithm algorithm) {
  switch (algorithm) {
    case TrussPlanAlgorithm::kAuto:
      return "auto";
    case TrussPlanAlgorithm::kBsp:
      return "bsp";
    case TrussPlanAlgorithm::kCoreThenTruss:
      return "core-truss";
  }
  TSD_CHECK(false);
  __builtin_unreachable();
}

}  // namespace tsd
