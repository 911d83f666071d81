#include "truss/ego_floor.h"

#include <algorithm>

#include "common/check.h"
#include "truss/peeling.h"

namespace tsd {

std::span<const Edge> EgoFloorPeeler::Peel(EgoNetwork& ego, std::uint32_t k) {
  TSD_CHECK(k >= 2);
  edges_supported_ = 0;
  // Step 1, in 64 bits: C(k, 2) overflows 32 bits from k = 2^16 + 1 on.
  const std::uint64_t min_edges = std::uint64_t{k} * (k - 1) / 2;
  if (ego.num_edges() < min_edges) return {};
  if (k == 2) return ego.edges;

  // Step 2: the (k−1)-core. A non-empty one has at least k members, so an
  // ego with fewer members of degree ≥ k−1 is answered from the degrees
  // alone, before any CSR is built. Otherwise a member is marked removed
  // when it is queued, so each one is queued once and only live neighbours
  // lose a degree.
  const std::uint32_t l = ego.num_members();
  const std::uint32_t min_degree = k - 1;
  degree_.assign(l, 0);
  for (const Edge& e : ego.edges) {
    ++degree_[e.u];
    ++degree_[e.v];
  }
  removed_.assign(l, 0);
  members_.clear();
  for (std::uint32_t x = 0; x < l; ++x) {
    if (degree_[x] < min_degree) {
      removed_[x] = 1;
      members_.push_back(x);
    }
  }
  if (l - members_.size() < k) return {};
  if (ego.offsets.empty()) ego.BuildCsr();
  while (!members_.empty()) {
    const std::uint32_t x = members_.back();
    members_.pop_back();
    for (const VertexId w : ego.LocalNeighbors(x)) {
      if (!removed_[w] && degree_[w]-- == min_degree) {
        removed_[w] = 1;
        members_.push_back(w);
      }
    }
  }
  edges_.clear();
  for (const Edge& e : ego.edges) {
    if (!removed_[e.u] && !removed_[e.v]) edges_.push_back(e);
  }
  edges_supported_ = edges_.size();
  if (edges_.empty()) return {};

  // Step 3: one forward pass over the compacted core CSR finds each
  // surviving triangle u < v < w once, at its lowest edge (u, v): the
  // common neighbours above v are the tail of u's list after v and the
  // tail of v's list above v.
  BuildLocalCsr(l, edges_, &offsets_, &adj_, &adj_edge_ids_);
  support_.assign(edges_.size(), 0);
  for (std::uint32_t u = 0; u < l; ++u) {
    const std::uint32_t u_end = offsets_[u + 1];
    for (std::uint32_t p = offsets_[u]; p < u_end; ++p) {
      const VertexId v = adj_[p];
      if (v < u) continue;
      const EdgeId uv = adj_edge_ids_[p];
      const std::uint32_t v_end = offsets_[v + 1];
      std::uint32_t i = p + 1;
      std::uint32_t j = static_cast<std::uint32_t>(
          std::upper_bound(adj_.begin() + offsets_[v], adj_.begin() + v_end,
                           v) -
          adj_.begin());
      while (i < u_end && j < v_end) {
        if (adj_[i] < adj_[j]) {
          ++i;
        } else if (adj_[i] > adj_[j]) {
          ++j;
        } else {
          ++support_[uv];
          ++support_[adj_edge_ids_[i++]];
          ++support_[adj_edge_ids_[j++]];
        }
      }
    }
  }

  // Step 4: the shared floor peel, then the survivors compacted in place
  // (the CSR is not needed past the peel).
  CsrView<std::uint32_t> view;
  view.num_vertices = l;
  view.offsets = offsets_;
  view.adj = adj_;
  view.adj_edge_ids = adj_edge_ids_;
  view.edges = edges_;
  PeelBelowFloor(view, k - 2, std::span<std::uint32_t>(support_), &dead_,
                 &stack_);
  std::size_t kept = 0;
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    if (!dead_[e]) edges_[kept++] = edges_[e];
  }
  edges_.resize(kept);
  return edges_;
}

std::size_t EgoFloorPeeler::capacity_bytes() const {
  return (degree_.capacity() + members_.capacity() + offsets_.capacity() +
          adj_.capacity() + adj_edge_ids_.capacity() + support_.capacity() +
          stack_.capacity()) *
             sizeof(std::uint32_t) +
         edges_.capacity() * sizeof(Edge) + removed_.capacity() +
         dead_.capacity();
}

}  // namespace tsd
