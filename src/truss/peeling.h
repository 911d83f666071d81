// Shared support-peeling kernels over any CSR-shaped graph view (the global
// Graph or a local ego-network), so the global and per-ego truss
// computations share one audited implementation each:
//
//  * PeelSupportToTrussnessInto — the full decomposition (Algorithm 1 of the
//    paper, after Wang–Cheng). Given initial edge supports, repeatedly
//    removes a minimum-support edge, assigns its trussness k = support + 2
//    (monotonically non-decreasing), and decrements the support of the two
//    other edges of every triangle the removed edge participated in.
//    Bucket-queue order gives O(1) amortized pops.
//  * PeelBelowFloor — one threshold only: removes every edge outside the
//    floor-truss and computes no trussness values (KTrussAtFloor globally,
//    EgoFloorPeeler per ego-network).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bucket_queue.h"
#include "graph/graph.h"

namespace tsd {

/// CSR view over which peeling runs. Offsets may be 32- or 64-bit.
template <typename OffsetT>
struct CsrView {
  std::size_t num_vertices = 0;
  std::span<const OffsetT> offsets;     // size num_vertices + 1
  std::span<const VertexId> adj;        // neighbor ids, sorted per vertex
  std::span<const EdgeId> adj_edge_ids; // parallel to adj
  std::span<const Edge> edges;          // endpoints per edge id

  std::uint32_t degree(VertexId v) const {
    return static_cast<std::uint32_t>(offsets[v + 1] - offsets[v]);
  }
};

/// The CSR view of a whole Graph.
inline CsrView<std::uint64_t> CsrViewOf(const Graph& graph) {
  CsrView<std::uint64_t> view;
  view.num_vertices = graph.num_vertices();
  view.offsets = graph.offsets();
  view.adj = graph.adjacency();
  view.adj_edge_ids = graph.adjacency_edge_ids();
  view.edges = graph.edges();
  return view;
}

/// Peels `view` down to its floor-truss, floor = min_support + 2: every edge
/// whose support is below `min_support` is removed, to a fixed point, and
/// `(*dead)[e]` is set for each removed edge (resized to the edge count,
/// reusing its capacity). `support` holds every edge's triangle count on
/// entry; on return each surviving edge's entry is its exact support inside
/// the floor-truss. `stack` is caller-owned scratch.
///
/// Each live edge's support stays exact — the number of triangles whose
/// three edges are all live — so no bucket levels or clamping are needed:
/// an edge is queued once, the moment its support drops below min_support,
/// and dies when popped. A triangle stops counting when its first edge
/// dies, so only that edge decrements the other two, and a popped edge's
/// support says how many live triangles its adjacency scan must find
/// before it can stop.
template <typename OffsetT>
void PeelBelowFloor(const CsrView<OffsetT>& view, std::uint32_t min_support,
                    std::span<std::uint32_t> support, std::vector<char>* dead,
                    std::vector<EdgeId>* stack) {
  const std::size_t m = view.edges.size();
  dead->assign(m, 0);
  stack->clear();
  for (EdgeId e = 0; e < m; ++e) {
    if (support[e] < min_support) stack->push_back(e);
  }
  while (!stack->empty()) {
    const EdgeId e = stack->back();
    stack->pop_back();
    (*dead)[e] = 1;
    std::uint32_t live = support[e];
    if (live == 0) continue;
    const auto [u, v] = view.edges[e];
    auto i = view.offsets[u];
    auto j = view.offsets[v];
    const auto u_end = view.offsets[u + 1];
    const auto v_end = view.offsets[v + 1];
    while (live > 0 && i < u_end && j < v_end) {
      if (view.adj[i] < view.adj[j]) {
        ++i;
      } else if (view.adj[i] > view.adj[j]) {
        ++j;
      } else {
        const EdgeId a = view.adj_edge_ids[i++];
        const EdgeId b = view.adj_edge_ids[j++];
        if ((*dead)[a] || (*dead)[b]) continue;
        --live;
        // An edge already queued sits below min_support and never matches.
        if (support[a]-- == min_support) stack->push_back(a);
        if (support[b]-- == min_support) stack->push_back(b);
      }
    }
  }
}

/// Peels edges by support and writes the trussness of every edge into
/// `*trussness` (resized to the edge count, reusing its capacity). `queue`
/// is caller-owned scratch so repeated decompositions stay allocation-free.
template <typename OffsetT>
void PeelSupportToTrussnessInto(const CsrView<OffsetT>& view,
                                const std::vector<std::uint32_t>& support,
                                BucketQueue& queue,
                                std::vector<std::uint32_t>* trussness) {
  const std::size_t m = view.edges.size();
  trussness->assign(m, 2);
  if (m == 0) return;

  queue.Init(support);
  std::uint32_t level = 0;  // current peeling level in support space (k-2)

  while (!queue.Empty()) {
    const EdgeId e = queue.PopMin();
    level = std::max(level, queue.Key(e));
    (*trussness)[e] = level + 2;

    const auto [u0, v0] = view.edges[e];
    // Scan the smaller adjacency; binary-search the larger for membership.
    VertexId u = u0;
    VertexId v = v0;
    if (view.degree(u) > view.degree(v)) std::swap(u, v);

    const auto u_begin = view.offsets[u];
    const auto u_end = view.offsets[u + 1];
    const auto v_begin = view.offsets[v];
    const auto v_end = view.offsets[v + 1];
    for (auto i = u_begin; i < u_end; ++i) {
      const VertexId w = view.adj[i];
      if (w == v) continue;
      const EdgeId e_uw = view.adj_edge_ids[i];
      if (queue.Removed(e_uw)) continue;
      // Find edge (v, w).
      const auto it = std::lower_bound(view.adj.begin() + v_begin,
                                       view.adj.begin() + v_end, w);
      if (it == view.adj.begin() + v_end || *it != w) continue;
      const EdgeId e_vw =
          view.adj_edge_ids[static_cast<std::size_t>(it - view.adj.begin())];
      if (queue.Removed(e_vw)) continue;
      // Triangle (u, v, w) loses edge e: the other two edges each lose one
      // unit of support (clamped at the current level).
      queue.DecreaseKeyClamped(e_uw, level);
      queue.DecreaseKeyClamped(e_vw, level);
    }
  }
}

/// One-shot wrapper returning the trussness vector.
template <typename OffsetT>
std::vector<std::uint32_t> PeelSupportToTrussness(
    const CsrView<OffsetT>& view, std::vector<std::uint32_t> support) {
  std::vector<std::uint32_t> trussness;
  BucketQueue queue;
  PeelSupportToTrussnessInto(view, support, queue, &trussness);
  return trussness;
}

}  // namespace tsd
