// Ego-network extraction (Definition 1 of the paper).
//
// The ego-network G_N(v) is the subgraph induced by v's neighbors, with v
// itself excluded. Two extraction strategies are implemented:
//
//  * BasicEgoNetworkExtractor — the one per-vertex extraction loop: mark
//    N(v), scan each member's adjacency. EgoNetworkExtractor (over the CSR
//    Graph) serves the query pipeline and the TSD, GCT and dynamic index
//    builds; DynamicEgoNetworkExtractor serves the dynamic TSD index's
//    per-update rebuilds over its DynamicGraph.
//  * GlobalEgoNetworks — the Section 6.2 optimization: one global triangle
//    listing pass distributes every triangle (u,v,w) to the three
//    ego-networks it belongs to, so each triangle is enumerated 3 times
//    instead of 6. Used by GCT-index construction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"

namespace tsd {

/// Fills a local CSR over `num_vertices` vertices from `edges` (local-id
/// pairs with u < v, sorted by (u, v)), reusing the three buffers'
/// capacity. Sorted input makes every adjacency list come out sorted, and
/// the fill needs no cursor scratch, so a warm rebuild allocates nothing.
void BuildLocalCsr(std::uint32_t num_vertices, std::span<const Edge> edges,
                   std::vector<std::uint32_t>* offsets,
                   std::vector<VertexId>* adj,
                   std::vector<EdgeId>* adj_edge_ids);

/// A materialized ego-network with local vertex ids.
///
/// Local id i corresponds to global vertex members[i]; members is sorted
/// ascending. Edges use local ids (Edge.u < Edge.v). The local CSR arrays
/// (offsets/adj/adj_edge_ids) are filled by BuildCsr().
struct EgoNetwork {
  VertexId center = kInvalidVertex;
  std::vector<VertexId> members;  // global ids of N(center), sorted
  std::vector<Edge> edges;        // local-id pairs, sorted by (u, v)

  // Local CSR (valid after BuildCsr()).
  std::vector<std::uint32_t> offsets;
  std::vector<VertexId> adj;
  std::vector<EdgeId> adj_edge_ids;

  std::uint32_t num_members() const {
    return static_cast<std::uint32_t>(members.size());
  }
  std::uint32_t num_edges() const {
    return static_cast<std::uint32_t>(edges.size());
  }

  VertexId ToGlobal(std::uint32_t local) const { return members[local]; }

  /// Local id of a global vertex, or kInvalidVertex if absent. O(log).
  std::uint32_t ToLocal(VertexId global) const;

  /// Builds the local CSR arrays from `edges`. Idempotent.
  void BuildCsr();

  std::uint32_t LocalDegree(std::uint32_t local) const {
    return offsets[local + 1] - offsets[local];
  }
  std::span<const VertexId> LocalNeighbors(std::uint32_t local) const {
    return {adj.data() + offsets[local], adj.data() + offsets[local + 1]};
  }
};

/// Per-vertex ego-network extraction with reusable scratch buffers, over
/// any graph type whose neighbors(v) are sorted ascending (Graph and
/// DynamicGraph; both are instantiated in ego_network.cc). Not thread-safe;
/// create one extractor per thread.
template <typename GraphT>
class BasicEgoNetworkExtractor {
 public:
  explicit BasicEgoNetworkExtractor(const GraphT& graph);

  /// Retargets the extractor to another graph, reusing the scratch buffers
  /// (only grown, never shrunk). Lets a per-query reduced graph — e.g. the
  /// Algorithm 4 sparsified subgraph — run on a persistent workspace, and
  /// re-binding the same DynamicGraph after it grew covers the new ids.
  void Rebind(const GraphT& graph);

  /// Extracts G_N(v). Includes isolated members (neighbors of v with no
  /// edges inside the ego-network).
  EgoNetwork Extract(VertexId v);

  /// Extraction reusing the caller's EgoNetwork storage.
  void ExtractInto(VertexId v, EgoNetwork* out);

  const GraphT& graph() const { return *graph_; }

 private:
  const GraphT* graph_;
  std::vector<std::uint32_t> local_id_;  // scratch: global -> local + 1, 0 = absent
};

using EgoNetworkExtractor = BasicEgoNetworkExtractor<Graph>;
using DynamicEgoNetworkExtractor = BasicEgoNetworkExtractor<DynamicGraph>;

extern template class BasicEgoNetworkExtractor<Graph>;
extern template class BasicEgoNetworkExtractor<DynamicGraph>;

/// One-shot global ego-network extraction (Algorithm 7, lines 1–4).
///
/// A single triangle-listing pass fills, for every vertex w, the list of
/// ego edges of G_N(w) (as global-id pairs). Total storage is 3T edge slots.
class GlobalEgoNetworks {
 public:
  /// Lists all triangles and groups them by center. With
  /// `config.num_threads > 1` the forward-adjacency build, the counting
  /// pass, AND the distribution fill run on worker threads: a per-chunk
  /// counting matrix gives every (chunk, center) pair a disjoint cursor
  /// range inside the center's slice, so the parallel fill reproduces the
  /// sequential listing order bit for bit (chunks are ordered sub-ranges of
  /// the enumeration). Above a scratch budget the matrix shrinks and
  /// ultimately falls back to the sequential shared-cursor fill.
  explicit GlobalEgoNetworks(const Graph& graph,
                             const ParallelConfig& config = {});

  /// Ego edges of G_N(v) as global-id pairs (u < w, unordered list).
  std::span<const Edge> EgoEdges(VertexId v) const {
    return {ego_edges_.data() + offsets_[v],
            ego_edges_.data() + offsets_[v + 1]};
  }

  /// Materializes the full EgoNetwork (members = N(v), local-id edges).
  EgoNetwork Materialize(VertexId v) const;
  void MaterializeInto(VertexId v, EgoNetwork* out) const;

  /// Seconds spent in the global triangle listing pass.
  double listing_seconds() const { return listing_seconds_; }

  /// Total number of triangles in the graph.
  std::uint64_t num_triangles() const { return ego_edges_.size() / 3; }

  std::size_t MemoryBytes() const {
    return offsets_.size() * sizeof(std::uint64_t) +
           ego_edges_.size() * sizeof(Edge);
  }

 private:
  const Graph& graph_;
  std::vector<std::uint64_t> offsets_;  // size n+1
  std::vector<Edge> ego_edges_;         // flat, grouped by center vertex
  double listing_seconds_ = 0;
};

}  // namespace tsd
