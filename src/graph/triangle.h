// Triangle listing and edge-support computation.
//
// Uses the standard "forward" algorithm over a degree ordering: every
// triangle is enumerated exactly once in O(ρ·m) total time, where ρ is the
// graph's arboricity (Chiba–Nishizeki). Each forward-list intersection is a
// marked scan over an n-sized per-worker array rather than a rank merge
// (see ForEachTriangleInRange). This is the workhorse behind support
// computation (Algorithm 1, line 1), the ego-network edge counts m_v used by
// the Lemma 2 upper bound, and the one-shot global ego-network extraction of
// Section 6.2.
//
// Both the sequential kernels and the multi-threaded variants (per-worker
// accumulation over the same ForwardAdjacency, merged deterministically)
// live here: triangle listing depends only on graph/ and common/, and
// graph/ego_network.cc consumes the forward machinery directly — keeping it
// in truss/ would point the layer DAG the wrong way.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"

namespace tsd {

/// Total number of triangles T in the graph.
std::uint64_t CountTriangles(const Graph& graph);

/// Support of every edge: sup(e) = number of triangles containing e.
std::vector<std::uint32_t> ComputeSupport(const Graph& graph);

/// Number of triangles through each vertex. This equals m_v, the edge count
/// of the ego-network G_N(v) (each ego edge (u,w) of v is the triangle
/// (v,u,w)). Counts are 64-bit: a vertex of degree d sits in up to
/// C(d, 2) triangles, which overflows 32 bits for d ≳ 93k in a dense
/// community.
std::vector<std::uint64_t> TrianglesPerVertex(const Graph& graph);

/// Parallel total triangle count. Equals CountTriangles(graph).
std::uint64_t CountTriangles(const Graph& graph, const ParallelConfig& config);

/// Parallel edge supports. Equals ComputeSupport(graph).
std::vector<std::uint32_t> ComputeSupport(const Graph& graph,
                                          const ParallelConfig& config);

/// Parallel per-vertex triangle counts (the ego-network edge counts m_v).
/// Equals TrianglesPerVertex(graph); 64-bit, see above.
std::vector<std::uint64_t> TrianglesPerVertex(const Graph& graph,
                                              const ParallelConfig& config);

/// Enumerates every triangle exactly once. The callback receives the three
/// corner vertices and the ids of the three edges:
///   fn(u, v, w, e_uv, e_uw, e_vw)
/// Corner order follows the internal degree ordering (no sorted guarantee on
/// vertex ids).
template <typename Fn>
void ForEachTriangle(const Graph& graph, Fn&& fn);

namespace internal {

/// Degree-ordered forward adjacency: for each vertex, the neighbors that
/// come later in the (degree, id) order, sorted by that order. Shared by the
/// triangle kernels above. With `config.num_threads > 1` the per-vertex
/// counting, slice fill, and slice sorting run on worker threads; ranks are
/// a permutation (unique sort keys), so the arrays are bit-identical to the
/// sequential build at any thread count.
struct ForwardAdjacency {
  explicit ForwardAdjacency(const Graph& graph)
      : ForwardAdjacency(graph, ParallelConfig{}) {}
  ForwardAdjacency(const Graph& graph, const ParallelConfig& config);

  std::vector<std::uint32_t> rank;       // position in degree order
  std::vector<std::uint64_t> offsets;    // size n+1
  std::vector<VertexId> neighbors;       // forward neighbors, sorted by rank
  std::vector<EdgeId> edge_ids;          // parallel to neighbors
  std::vector<std::uint32_t> neighbor_ranks;  // parallel, = rank[neighbor]
};

/// Enumerates every triangle whose lowest-ranked corner u lies in
/// [u_begin, u_end) — the unit of work the parallel kernels hand to each
/// chunk. ForEachTriangle is the [0, n) instantiation.
///
/// The intersection is a marked scan rather than a rank merge: for each u,
/// `marks[w]` is set to e_uw + 1 for every w of u's forward slice, then each
/// forward neighbour v's slice N⁺(v) is scanned once and tested against the
/// marks, and u's slice is cleared again. Every w of N⁺(v) ranks above v, so
/// a mark hit is exactly a w after v in u's slice (and u's last forward
/// neighbour has no such w left to find). Triangles come out in the merge's
/// order — u, then v in forward order, then w in rank order — so every
/// listing, support and count is independent of the kernel. Each scan step
/// is one load and a rarely taken branch, where a merge step is a
/// data-dependent three-way branch that mispredicts often.
///
/// `marks` is caller-owned scratch, one per worker: sized to n on first use
/// and all zero between calls (the same invariant as the ego extractor's
/// local-id array).
template <typename Fn>
void ForEachTriangleInRange(const ForwardAdjacency& fwd, VertexId u_begin,
                            VertexId u_end, std::vector<EdgeId>& marks,
                            Fn&& fn) {
  if (marks.size() + 1 < fwd.offsets.size()) {
    marks.assign(fwd.offsets.size() - 1, 0);
  }
  for (VertexId u = u_begin; u < u_end; ++u) {
    const auto begin_u = fwd.offsets[u];
    const auto end_u = fwd.offsets[u + 1];
    if (end_u - begin_u < 2) continue;  // a triangle needs two of them
    for (auto i = begin_u; i < end_u; ++i) {
      marks[fwd.neighbors[i]] = fwd.edge_ids[i] + 1;
    }
    for (auto i = begin_u; i + 1 < end_u; ++i) {
      const VertexId v = fwd.neighbors[i];
      const EdgeId e_uv = fwd.edge_ids[i];
      const auto end_v = fwd.offsets[v + 1];
      for (auto j = fwd.offsets[v]; j < end_v; ++j) {
        const EdgeId mark = marks[fwd.neighbors[j]];
        if (mark != 0) {
          fn(u, v, fwd.neighbors[j], e_uv, mark - 1, fwd.edge_ids[j]);
        }
      }
    }
    for (auto i = begin_u; i < end_u; ++i) marks[fwd.neighbors[i]] = 0;
  }
}

/// Cap on the total per-worker scratch (num_threads × (counter array + n
/// marks) bytes) the counting kernels may allocate. Above it they fall back
/// to one shared counter array of relaxed atomics: slower per increment on
/// contended cache lines, but O(m) instead of O(threads × m) counter memory
/// — a billion-edge graph at 8 threads would otherwise need tens of GB of
/// scratch. The mark arrays stay per worker (O(threads × n)) on both paths.
/// Results are identical either way.
inline constexpr std::uint64_t kCountingScratchBudgetBytes =
    std::uint64_t{1} << 30;

/// Edge supports over a prebuilt forward adjacency for `m` edges.
/// `scratch_budget_bytes` selects the accumulation strategy (tests pass 0
/// to force the shared-atomic path on small graphs).
std::vector<std::uint32_t> SupportFromForward(
    const ForwardAdjacency& fwd, EdgeId m, const ParallelConfig& config,
    std::uint64_t scratch_budget_bytes = kCountingScratchBudgetBytes);

/// Per-vertex triangle counts over a prebuilt forward adjacency for `n`
/// vertices — the shared kernel behind TrianglesPerVertex and the counting
/// pass of the global ego listing (which reuses its ForwardAdjacency for
/// the distribution pass).
std::vector<std::uint64_t> TrianglesPerVertexFromForward(
    const ForwardAdjacency& fwd, VertexId n, const ParallelConfig& config,
    std::uint64_t scratch_budget_bytes = kCountingScratchBudgetBytes);

}  // namespace internal

template <typename Fn>
void ForEachTriangle(const Graph& graph, Fn&& fn) {
  const internal::ForwardAdjacency fwd(graph);
  std::vector<EdgeId> marks;
  internal::ForEachTriangleInRange(fwd, 0, graph.num_vertices(), marks,
                                   std::forward<Fn>(fn));
}

}  // namespace tsd
