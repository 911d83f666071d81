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
                                            std::uint32_t min_trussness,
                                            const ParallelConfig& config) {
  // A consumption floor above 2 makes the O(n + m) core prefilter worth its
  // price whenever the degree distribution is skewed: skew puts mass below
  // the floor's core bound, and every pruned edge skips its O(ρ) support
  // intersection and all peeling work entirely.
  if (min_trussness > 2 && stats.degree_skew >= 3.0) {
    return TrussPlanAlgorithm::kCoreThenTruss;
  }
  // Wide, even frontiers — dense graphs with balanced degrees peel many
  // edges per level — favour the Jacobi schedule: its recompute phase is
  // tie-break-free and embarrassingly parallel. Narrow or skewed frontiers
  // favour Bsp's cheaper per-triangle decrements, and below 4 threads the
  // recompute overhead has nothing to amortize against.
  if (config.num_threads >= 4 && stats.average_degree >= 16.0 &&
      stats.degree_skew < 3.0) {
    return TrussPlanAlgorithm::kBspJacobi;
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
                                const ParallelConfig& config) {
  TrussPlanStats stats;
  stats.requested = plan.algorithm();
  stats.min_trussness = plan.min_trussness();
  stats.graph_stats = ComputeGraphStatistics(graph);
  stats.algorithm =
      plan.algorithm() == TrussPlanAlgorithm::kAuto
          ? ChooseTrussPlanAlgorithm(stats.graph_stats, plan.min_trussness(),
                                     config)
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
  pruned.kept_ids.reserve(kept_edges.capacity());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const Edge& edge = graph.edge(e);
    if (kept(edge)) {
      kept_edges.emplace_back(edge.u, edge.v);
      pruned.kept_ids.push_back(e);
    }
  }
  pruned.graph = Graph::FromEdges(std::move(kept_edges), graph.num_vertices());
  // GraphBuilder sorts edges by (u, v) and the kept list is an (already
  // sorted) subsequence of graph.edges(), so subgraph edge i is exactly
  // kept_ids[i].
  TSD_CHECK(pruned.graph.num_edges() == pruned.kept_ids.size());
  return pruned;
}

}  // namespace internal

namespace {

std::vector<std::uint32_t> SupportForPlan(const Graph& graph,
                                          const ParallelConfig& config,
                                          bool bitmap_kernel) {
  return bitmap_kernel ? internal::SupportViaBitmaps(graph, config)
                       : ComputeSupport(graph, config);
}

std::vector<std::uint32_t> RunPeel(const Graph& graph,
                                   TrussPlanAlgorithm algorithm,
                                   const ParallelConfig& config,
                                   TrussPlanStats& stats) {
  stats.bitmap_kernel = internal::BitmapSupportEligible(
      graph.num_vertices(), graph.num_edges(), internal::kBitmapBudgetBytes,
      internal::kGlobalBitmapDensityShift);
  std::vector<std::uint32_t> support =
      SupportForPlan(graph, config, stats.bitmap_kernel);
  return algorithm == TrussPlanAlgorithm::kBspJacobi
             ? TrussnessFromSupportJacobi(graph, std::move(support), config)
             : TrussnessFromSupport(graph, std::move(support), config);
}

// CoreThenTruss: prune every edge whose core bound proves its trussness
// below the floor, then peel the surviving subgraph. The pruned edges are in
// no k-truss the caller consumes, so trussness restricted to the subgraph
// equals trussness in G for every surviving edge of trussness ≥ floor.
std::vector<std::uint32_t> RunCoreThenTruss(const Graph& graph,
                                            const TrussPlan& plan,
                                            const ParallelConfig& config,
                                            TrussPlanStats& stats) {
  const internal::CorePrunedGraph pruned =
      internal::PruneByCoreBound(graph, plan.min_trussness());
  stats.edges_pruned = pruned.edges_pruned;
  if (pruned.edges_pruned == 0) {
    // Nothing to prune (always the case at min_trussness == 2: every edge
    // endpoint has core ≥ 1); no subgraph was built.
    return RunPeel(graph, TrussPlanAlgorithm::kBsp, config, stats);
  }
  const std::vector<std::uint32_t> sub_trussness =
      RunPeel(pruned.graph, TrussPlanAlgorithm::kBsp, config, stats);

  // Pruned edges take the trivial trussness 2.
  std::vector<std::uint32_t> trussness(graph.num_edges(), 2);
  for (std::size_t i = 0; i < pruned.kept_ids.size(); ++i) {
    trussness[pruned.kept_ids[i]] = sub_trussness[i];
  }
  return trussness;
}

}  // namespace

std::vector<std::uint32_t> TrussnessWithPlan(const Graph& graph,
                                             const TrussPlan& plan,
                                             const ParallelConfig& config,
                                             TrussPlanStats* stats) {
  TrussPlanStats local_stats;
  TrussPlanStats& out = stats != nullptr ? *stats : local_stats;
  out = internal::ResolveTrussPlan(graph, plan, config);
  if (out.algorithm == TrussPlanAlgorithm::kCoreThenTruss) {
    return RunCoreThenTruss(graph, plan, config, out);
  }
  return RunPeel(graph, out.algorithm, config, out);
}

std::optional<TrussPlanAlgorithm> ParseTrussPlanAlgorithm(
    std::string_view name) {
  if (name == "auto") return TrussPlanAlgorithm::kAuto;
  if (name == "bsp") return TrussPlanAlgorithm::kBsp;
  if (name == "jacobi") return TrussPlanAlgorithm::kBspJacobi;
  if (name == "core-truss") return TrussPlanAlgorithm::kCoreThenTruss;
  return std::nullopt;
}

std::string TrussPlanAlgorithmName(TrussPlanAlgorithm algorithm) {
  switch (algorithm) {
    case TrussPlanAlgorithm::kAuto:
      return "auto";
    case TrussPlanAlgorithm::kBsp:
      return "bsp";
    case TrussPlanAlgorithm::kBspJacobi:
      return "jacobi";
    case TrussPlanAlgorithm::kCoreThenTruss:
      return "core-truss";
  }
  TSD_CHECK(false);
  __builtin_unreachable();
}

}  // namespace tsd
