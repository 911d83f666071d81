#include "truss/k_truss.h"

#include <algorithm>

#include "common/check.h"
#include "common/disjoint_set.h"
#include "graph/triangle.h"
#include "truss/peeling.h"

namespace tsd {
namespace {

/// Groups the vertices with include[v] by their DSU set. Vertices are
/// visited in ascending id order, so every member list comes out sorted and
/// components are ordered by smallest member with no sorting.
std::vector<std::vector<VertexId>> CollectComponents(
    DisjointSet& dsu, const std::vector<char>& include) {
  std::vector<std::uint32_t> slot_of_root;
  std::vector<std::vector<VertexId>> components;
  GroupBySet(
      dsu, slot_of_root, &components,
      [&](VertexId v) { return include[v] != 0; },
      [](std::vector<VertexId>& component, VertexId v) {
        component.push_back(v);
      });
  return components;
}

/// The edges of `graph` that `keep(e)` selects, as a graph over the same
/// vertex ids.
template <typename KeepFn>
Graph EdgeSubgraph(const Graph& graph, KeepFn&& keep) {
  std::size_t kept = 0;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) kept += keep(e) ? 1 : 0;
  GraphBuilder builder;
  builder.ReserveEdges(kept);
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (keep(e)) builder.AddEdge(graph.edge(e).u, graph.edge(e).v);
  }
  return builder.EnsureVertices(graph.num_vertices()).Build();
}

}  // namespace

Graph KTrussAtFloor(const Graph& graph, std::uint32_t floor,
                    const ParallelConfig& config, TrussPlanStats* stats,
                    std::vector<std::uint64_t>* ego_edges) {
  floor = std::max<std::uint32_t>(floor, 2);
  TrussPlanStats local_stats;
  TrussPlanStats& out = stats != nullptr ? *stats : local_stats;
  out = internal::ResolveTrussPlan(
      graph, TrussPlan::FromAlgorithm(config.truss_plan), floor);

  internal::CorePrunedGraph pruned;
  if (out.algorithm == TrussPlanAlgorithm::kCoreThenTruss) {
    pruned = internal::PruneByCoreBound(graph, floor);
    out.edges_pruned = pruned.edges_pruned;
  }
  const Graph* source = pruned.edges_pruned > 0 ? &pruned.graph : &graph;

  // A floor-truss edge lies in at least floor − 2 triangles of the source,
  // so the floor-truss of the edges that clear that count is the
  // floor-truss of the source. Peeling only those edges, on their own
  // recounted supports, skips every triangle the cut edges close.
  const std::uint32_t min_support = floor - 2;
  std::vector<std::uint32_t> support;
  Graph cut;
  if (min_support > 0 || ego_edges != nullptr) {
    support = ComputeSupport(*source, config);
    if (std::any_of(support.begin(), support.end(),
                    [&](std::uint32_t s) { return s < min_support; })) {
      cut = EdgeSubgraph(*source,
                         [&](EdgeId e) { return support[e] >= min_support; });
      std::vector<std::uint32_t>().swap(support);
      source = &cut;
      support = ComputeSupport(cut, config);
    }
  }
  out.edges_recounted = source->num_edges();

  std::vector<char> dead(source->num_edges(), 0);
  if (min_support > 0) {
    std::vector<EdgeId> stack;
    PeelBelowFloor(CsrViewOf(*source), min_support, support, &dead, &stack);
  }
  if (ego_edges != nullptr) {
    // Each surviving edge's support is exact inside the floor-truss, and a
    // triangle through v counts once on each of its two edges at v.
    ego_edges->assign(graph.num_vertices(), 0);
    for (EdgeId e = 0; e < source->num_edges(); ++e) {
      if (dead[e]) continue;
      (*ego_edges)[source->edge(e).u] += support[e];
      (*ego_edges)[source->edge(e).v] += support[e];
    }
    for (std::uint64_t& count : *ego_edges) count /= 2;
  }
  return EdgeSubgraph(*source, [&](EdgeId e) { return !dead[e]; });
}

std::vector<std::vector<VertexId>> MaximalConnectedKTrusses(
    const Graph& graph, const std::vector<std::uint32_t>& edge_trussness,
    std::uint32_t k) {
  TSD_CHECK(edge_trussness.size() == graph.num_edges());
  DisjointSet dsu(graph.num_vertices());
  std::vector<char> touched(graph.num_vertices(), 0);
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (edge_trussness[e] >= k) {
      const Edge& edge = graph.edge(e);
      dsu.Union(edge.u, edge.v);
      touched[edge.u] = 1;
      touched[edge.v] = 1;
    }
  }
  return CollectComponents(dsu, touched);
}

std::vector<EdgeId> KTrussEdges(
    const Graph& graph, const std::vector<std::uint32_t>& edge_trussness,
    std::uint32_t k) {
  TSD_CHECK(edge_trussness.size() == graph.num_edges());
  std::vector<EdgeId> kept;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (edge_trussness[e] >= k) kept.push_back(e);
  }
  return kept;
}

Graph KTrussSubgraph(const Graph& graph,
                     const std::vector<std::uint32_t>& edge_trussness,
                     std::uint32_t k) {
  return EdgeSubgraph(graph,
                      [&](EdgeId e) { return edge_trussness[e] >= k; });
}

std::vector<std::vector<VertexId>> MaximalConnectedKCores(
    const Graph& graph, const std::vector<std::uint32_t>& core_numbers,
    std::uint32_t k) {
  TSD_CHECK(core_numbers.size() == graph.num_vertices());
  DisjointSet dsu(graph.num_vertices());
  std::vector<char> qualified(graph.num_vertices(), 0);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    qualified[v] = core_numbers[v] >= k ? 1 : 0;
  }
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const Edge& edge = graph.edge(e);
    if (qualified[edge.u] && qualified[edge.v]) dsu.Union(edge.u, edge.v);
  }
  return CollectComponents(dsu, qualified);
}

std::vector<std::vector<VertexId>> ComponentsOfMinSize(
    const Graph& graph, std::uint32_t min_size) {
  DisjointSet dsu(graph.num_vertices());
  for (const Edge& edge : graph.edges()) dsu.Union(edge.u, edge.v);
  std::vector<char> include(graph.num_vertices(), 0);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    include[v] = dsu.SetSize(v) >= min_size ? 1 : 0;
  }
  return CollectComponents(dsu, include);
}

}  // namespace tsd
