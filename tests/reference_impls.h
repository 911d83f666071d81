// Naive reference implementations used to validate the optimized library
// code on small graphs. These follow the paper's definitions literally
// (iterative deletion, brute-force neighborhood intersection) with no
// shared state, no peeling, and no indexes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/disjoint_set.h"
#include "graph/graph.h"
#include "graph/triangle.h"

namespace tsd::testing {

/// Brute-force triangle count: checks every vertex triple adjacency.
inline std::uint64_t NaiveTriangleCount(const Graph& g) {
  std::uint64_t count = 0;
  for (const Edge& e : g.edges()) {
    for (VertexId w = 0; w < g.num_vertices(); ++w) {
      if (w == e.u || w == e.v) continue;
      if (g.HasEdge(e.u, w) && g.HasEdge(e.v, w)) ++count;
    }
  }
  return count / 3;
}

/// The forward algorithm with a rank-merge intersection: for each u, each
/// forward neighbour v in rank order, the forward lists of u (after v) and
/// v are merged by rank and every common w is emitted as
/// fn(u, v, w, e_uv, e_uw, e_vw). The library's marked-scan kernel
/// (internal::ForEachTriangleInRange) must emit the same sequence.
template <typename Fn>
void MergeForEachTriangle(const Graph& g, Fn&& fn) {
  const internal::ForwardAdjacency fwd(g);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto end_u = fwd.offsets[u + 1];
    for (auto i = fwd.offsets[u]; i < end_u; ++i) {
      const VertexId v = fwd.neighbors[i];
      auto pu = i + 1;
      auto pv = fwd.offsets[v];
      const auto end_v = fwd.offsets[v + 1];
      while (pu < end_u && pv < end_v) {
        const std::uint32_t ru = fwd.neighbor_ranks[pu];
        const std::uint32_t rv = fwd.neighbor_ranks[pv];
        if (ru < rv) {
          ++pu;
        } else if (ru > rv) {
          ++pv;
        } else {
          fn(u, v, fwd.neighbors[pu], fwd.edge_ids[i], fwd.edge_ids[pu],
             fwd.edge_ids[pv]);
          ++pu;
          ++pv;
        }
      }
    }
  }
}

/// Brute-force support of every edge.
inline std::vector<std::uint32_t> NaiveSupport(const Graph& g) {
  std::vector<std::uint32_t> support(g.num_edges(), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    for (VertexId w : g.neighbors(edge.u)) {
      if (w != edge.v && g.HasEdge(edge.v, w)) ++support[e];
    }
  }
  return support;
}

/// Edge trussness by literal iterative deletion: for each k, repeatedly
/// delete edges whose support inside the surviving subgraph is < k-2; an
/// edge's trussness is the largest k at which it survives.
inline std::vector<std::uint32_t> NaiveTrussness(const Graph& g) {
  const EdgeId m = g.num_edges();
  std::vector<std::uint32_t> trussness(m, 2);
  std::vector<char> alive(m, 1);

  auto support_of = [&](EdgeId e) {
    const Edge& edge = g.edge(e);
    std::uint32_t s = 0;
    for (std::size_t i = 0; i < g.neighbors(edge.u).size(); ++i) {
      const VertexId w = g.neighbors(edge.u)[i];
      const EdgeId e_uw = g.incident_edges(edge.u)[i];
      if (w == edge.v || !alive[e_uw]) continue;
      const EdgeId e_vw = g.FindEdge(edge.v, w);
      if (e_vw != kInvalidEdge && alive[e_vw]) ++s;
    }
    return s;
  };

  for (std::uint32_t k = 3; std::count(alive.begin(), alive.end(), 1) > 0;
       ++k) {
    // Delete edges with support < k-2 until the k-truss stabilizes.
    bool changed = true;
    while (changed) {
      changed = false;
      for (EdgeId e = 0; e < m; ++e) {
        if (alive[e] && support_of(e) < k - 2) {
          alive[e] = 0;
          changed = true;
        }
      }
    }
    for (EdgeId e = 0; e < m; ++e) {
      if (alive[e]) trussness[e] = k;
    }
  }
  return trussness;
}

/// Core numbers by literal iterative deletion.
inline std::vector<std::uint32_t> NaiveCoreNumbers(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<std::uint32_t> core(n, 0);
  std::vector<char> alive(n, 1);
  auto degree_of = [&](VertexId v) {
    std::uint32_t d = 0;
    for (VertexId u : g.neighbors(v)) d += alive[u];
    return d;
  };
  for (std::uint32_t k = 1;; ++k) {
    bool any_alive = false;
    bool changed = true;
    while (changed) {
      changed = false;
      for (VertexId v = 0; v < n; ++v) {
        if (alive[v] && degree_of(v) < k) {
          alive[v] = 0;
          changed = true;
        }
      }
    }
    for (VertexId v = 0; v < n; ++v) {
      if (alive[v]) {
        core[v] = k;
        any_alive = true;
      }
    }
    if (!any_alive) break;
  }
  return core;
}

/// The ego-network of v as a standalone graph over *global* vertex ids
/// (non-members isolated), for cross-checking extraction.
inline Graph NaiveEgoGraph(const Graph& g, VertexId v) {
  std::set<VertexId> members(g.neighbors(v).begin(), g.neighbors(v).end());
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (const Edge& e : g.edges()) {
    if (members.count(e.u) && members.count(e.v)) {
      edges.emplace_back(e.u, e.v);
    }
  }
  return Graph::FromEdges(std::move(edges), g.num_vertices());
}

/// Literal Definition 2 + 3: the truss-based structural diversity of v and
/// its social contexts, computed with the naive trussness above.
inline std::pair<std::uint32_t, std::vector<std::vector<VertexId>>>
NaiveScore(const Graph& g, VertexId v, std::uint32_t k) {
  const Graph ego = NaiveEgoGraph(g, v);
  const std::vector<std::uint32_t> trussness = NaiveTrussness(ego);

  DisjointSet dsu(ego.num_vertices());
  std::set<VertexId> touched;
  for (EdgeId e = 0; e < ego.num_edges(); ++e) {
    if (trussness[e] >= k) {
      dsu.Union(ego.edge(e).u, ego.edge(e).v);
      touched.insert(ego.edge(e).u);
      touched.insert(ego.edge(e).v);
    }
  }
  std::map<std::uint32_t, std::vector<VertexId>> by_root;
  for (VertexId u : touched) by_root[dsu.Find(u)].push_back(u);
  std::vector<std::vector<VertexId>> contexts;
  for (auto& [root, ctx] : by_root) {
    std::sort(ctx.begin(), ctx.end());
    contexts.push_back(ctx);
  }
  std::sort(contexts.begin(), contexts.end());
  return {static_cast<std::uint32_t>(contexts.size()), contexts};
}

}  // namespace tsd::testing
