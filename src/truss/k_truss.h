// k-truss / k-core subgraph extraction and component identification.
//
// "Maximal connected k-truss" is the paper's social-context unit (Def. 2):
// a connected component of the k-truss. Components are edge-induced — a
// vertex belongs to a component only if it is incident to a k-truss edge.
#pragma once

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"
#include "truss/truss_plan.h"

namespace tsd {

/// Connected components of the k-truss of `graph`, given precomputed edge
/// trussness. Each component is a sorted vertex list; components are sorted
/// by their smallest vertex for deterministic output.
std::vector<std::vector<VertexId>> MaximalConnectedKTrusses(
    const Graph& graph, const std::vector<std::uint32_t>& edge_trussness,
    std::uint32_t k);

/// Edge ids of the k-truss (trussness ≥ k).
std::vector<EdgeId> KTrussEdges(const Graph& graph,
                                const std::vector<std::uint32_t>& edge_trussness,
                                std::uint32_t k);

/// The k-truss as a standalone graph (same vertex id space; non-k-truss
/// edges dropped). Used for graph sparsification in Algorithm 4.
Graph KTrussSubgraph(const Graph& graph,
                     const std::vector<std::uint32_t>& edge_trussness,
                     std::uint32_t k);

/// The `floor`-truss of `graph` (same vertex id space), computed without a
/// trussness decomposition. Edge-for-edge equal to KTrussSubgraph(graph,
/// TrussDecomposition(graph).edge_trussness(), floor), at any thread count
/// and under every plan; floor ≤ 2 returns the whole graph. Steps:
///  1. config.truss_plan resolves at this floor (Auto picks CoreThenTruss
///     on skewed graphs above floor 2). Under CoreThenTruss the edges the
///     Burkhardt core bound rules out (internal::PruneByCoreBound) are
///     dropped first and reported in `stats->edges_pruned`; under Bsp this
///     step is skipped.
///  2. Supports are counted once. A floor-truss edge lies in at least
///     floor − 2 triangles, so only edges with that much support are kept
///     (`stats->edges_recounted`), and their supports are counted again on
///     the kept graph alone.
///  3. PeelBelowFloor removes every kept edge with support below floor − 2,
///     to a fixed point.
/// Extra memory is O(m); `stats` (optional) receives the execution report.
/// `ego_edges` (optional) receives m_v for every vertex of the result — the
/// triangles through v inside the floor-truss, TrianglesPerVertex(result) —
/// taken from the peel's final supports at no extra triangle pass.
Graph KTrussAtFloor(const Graph& graph, std::uint32_t floor,
                    const ParallelConfig& config,
                    TrussPlanStats* stats = nullptr,
                    std::vector<std::uint64_t>* ego_edges = nullptr);

/// Connected components of the subgraph induced by vertices with core
/// number ≥ k — the "maximal connected k-cores" of the Core-Div model [20].
std::vector<std::vector<VertexId>> MaximalConnectedKCores(
    const Graph& graph, const std::vector<std::uint32_t>& core_numbers,
    std::uint32_t k);

/// Connected components (of the whole graph) with at least `min_size`
/// vertices — the social contexts of the Comp-Div model [7], [21].
std::vector<std::vector<VertexId>> ComponentsOfMinSize(
    const Graph& graph, std::uint32_t min_size);

}  // namespace tsd
