// The k-truss of one ego-network at a single threshold, without a
// trussness decomposition.
//
// score(v) at threshold k depends only on the k-truss of G_N(v), so the
// single-k searchers (online and bound TopR, OnlineSearcher::ScoreVertex,
// the hybrid context phase) need the edge set, not every edge's trussness.
// EgoFloorPeeler marks it in four steps, all on reusable scratch:
//  1. An ego with fewer than C(k,2) edges has an empty k-truss: a k-truss
//     edge lies in ≥ k−2 triangles, so its component has ≥ k vertices,
//     each of degree ≥ k−1.
//  2. The (k−1)-core prefilter: members of local degree < k−1 are peeled
//     to a fixed point. Trussness ≤ min core number + 1 (Burkhardt, Faber
//     and Harris, arXiv:1806.05523), so every k-truss edge has both
//     endpoints in the (k−1)-core.
//  3. Support is counted on the surviving edges only, over surviving
//     triangles only (one forward pass on a compacted CSR).
//  4. PeelBelowFloor (truss/peeling.h, the same peel KTrussAtFloor runs on
//     the whole graph) removes edges with support below k−2.
// The result is edge-for-edge the edges of trussness ≥ k in
// EgoTrussDecomposer's decomposition; the multi-k batch paths and the index
// builds, which need the trussness values themselves, keep that kernel.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/ego_network.h"

namespace tsd {

/// Stateful single-threshold ego kernel with reusable scratch; create one
/// per thread. A warm peeler allocates nothing.
class EgoFloorPeeler {
 public:
  /// The k-truss edges of `ego` (k ≥ 2) as local-id pairs, in ego.edges
  /// order. Builds the ego CSR if absent. The span stays valid until the
  /// next call.
  std::span<const Edge> Peel(EgoNetwork& ego, std::uint32_t k);

  /// Ego edges that reached support counting in the last Peel: the edges
  /// of the ego's (k−1)-core, or 0 when step 1 answered or k = 2 (the
  /// 2-truss is every edge, so nothing is counted).
  std::uint64_t edges_supported() const { return edges_supported_; }

  std::size_t capacity_bytes() const;

 private:
  std::uint64_t edges_supported_ = 0;
  std::vector<std::uint32_t> degree_;   // live local degree per member
  std::vector<char> removed_;           // member left the (k−1)-core
  std::vector<std::uint32_t> members_;  // prefilter stack
  std::vector<Edge> edges_;             // (k−1)-core edges, then k-truss
  std::vector<std::uint32_t> offsets_;  // CSR of edges_
  std::vector<VertexId> adj_;
  std::vector<EdgeId> adj_edge_ids_;
  std::vector<std::uint32_t> support_;
  std::vector<char> dead_;
  std::vector<EdgeId> stack_;
};

}  // namespace tsd
