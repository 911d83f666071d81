#include "truss/k_truss.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/disjoint_set.h"
#include "graph/triangle.h"
#include "truss/peeling.h"

namespace tsd {
namespace {

/// Groups vertices by their DSU root, keeping only vertices where
/// `include[v]` is true. Output components sorted by smallest member.
///
/// Roots are mapped to output slots through a dense root→slot vector
/// instead of a hash map (this runs once per materialized context, hot in
/// the context phase). Scanning vertices in ascending id order makes every
/// component's member list come out sorted and assigns slots in order of
/// each component's smallest member, so no sorting is needed at all.
std::vector<std::vector<VertexId>> CollectComponents(
    DisjointSet& dsu, const std::vector<char>& include) {
  constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> slot_of_root(include.size(), kNoSlot);
  std::vector<std::vector<VertexId>> components;
  for (VertexId v = 0; v < include.size(); ++v) {
    if (!include[v]) continue;
    const std::uint32_t root = dsu.Find(v);
    if (slot_of_root[root] == kNoSlot) {
      slot_of_root[root] = static_cast<std::uint32_t>(components.size());
      components.emplace_back();
    }
    components[slot_of_root[root]].push_back(v);
  }
  return components;
}

}  // namespace

Graph KTrussAtFloor(const Graph& graph, std::uint32_t floor,
                    const ParallelConfig& config, TrussPlanStats* stats) {
  const TrussPlan plan = TrussPlan::FromAlgorithm(config.truss_plan, floor);
  TrussPlanStats local_stats;
  TrussPlanStats& out = stats != nullptr ? *stats : local_stats;
  out = internal::ResolveTrussPlan(graph, plan, config);

  internal::CorePrunedGraph pruned;
  if (out.algorithm == TrussPlanAlgorithm::kCoreThenTruss) {
    pruned = internal::PruneByCoreBound(graph, plan.min_trussness());
    out.edges_pruned = pruned.edges_pruned;
  }
  const Graph& source = pruned.edges_pruned > 0 ? pruned.graph : graph;

  std::vector<char> dead(source.num_edges(), 0);
  if (plan.min_trussness() > 2) {
    std::vector<std::uint32_t> support = ComputeSupport(source, config);
    std::vector<EdgeId> stack;
    PeelBelowFloor(CsrViewOf(source), plan.min_trussness() - 2, support,
                   &dead, &stack);
  }
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(static_cast<std::size_t>(
      std::count(dead.begin(), dead.end(), 0)));
  for (EdgeId e = 0; e < source.num_edges(); ++e) {
    if (!dead[e]) edges.emplace_back(source.edge(e).u, source.edge(e).v);
  }
  return Graph::FromEdges(std::move(edges), graph.num_vertices());
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
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (edge_trussness[e] >= k) {
      const Edge& edge = graph.edge(e);
      edges.emplace_back(edge.u, edge.v);
    }
  }
  return Graph::FromEdges(std::move(edges), graph.num_vertices());
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
