#include "graph/triangle.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>

namespace tsd {
namespace internal {
namespace {

// One forward-adjacency slot staged for the per-slice sort. Ranks are a
// permutation of [0, n), so sorting by rank alone is a total order.
struct ForwardEntry {
  std::uint32_t rank;
  VertexId neighbor;
  EdgeId edge;
};

}  // namespace

ForwardAdjacency::ForwardAdjacency(const Graph& graph,
                                   const ParallelConfig& config) {
  const VertexId n = graph.num_vertices();
  const std::uint32_t num_threads = std::max(1U, config.num_threads);
  const std::uint32_t num_chunks = EffectiveChunks(config, n);

  // Degree order: rank by (degree, id). Counting sort on degree. O(n), and
  // the in-degree-class assignment is order-dependent, so this stays
  // sequential; the O(m)/O(m log) phases below are the parallel ones.
  rank.resize(n);
  {
    std::vector<std::uint32_t> count(graph.max_degree() + 2, 0);
    for (VertexId v = 0; v < n; ++v) ++count[graph.degree(v) + 1];
    for (std::size_t d = 1; d < count.size(); ++d) count[d] += count[d - 1];
    // Assign ranks in id order within each degree class => (degree, id).
    for (VertexId v = 0; v < n; ++v) rank[v] = count[graph.degree(v)]++;
  }

  // Per-vertex forward-degree counts: each vertex owns its offsets slot.
  offsets.assign(n + 1, 0);
  ParallelForChunksIndexed(
      n, num_chunks, num_threads,
      [&](std::uint32_t /*worker*/, std::uint32_t /*chunk*/,
          std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t v = begin; v < end; ++v) {
          std::uint64_t forward = 0;
          for (VertexId u : graph.neighbors(static_cast<VertexId>(v))) {
            if (rank[u] > rank[v]) ++forward;
          }
          offsets[v + 1] = forward;
        }
      });
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];

  // Fill and rank-sort each vertex's forward slice. Slices are disjoint, so
  // chunks write without coordination; one staging buffer per worker keeps
  // the loop allocation-free in the steady state.
  const std::uint64_t total = offsets[n];
  neighbors.resize(total);
  edge_ids.resize(total);
  neighbor_ranks.resize(total);
  std::vector<std::vector<ForwardEntry>> staging(num_threads);
  ParallelForChunksIndexed(
      n, num_chunks, num_threads,
      [&](std::uint32_t worker, std::uint32_t /*chunk*/, std::uint64_t begin,
          std::uint64_t end) {
        std::vector<ForwardEntry>& buffer = staging[worker];
        for (std::uint64_t v = begin; v < end; ++v) {
          const auto nbrs = graph.neighbors(static_cast<VertexId>(v));
          const auto eids = graph.incident_edges(static_cast<VertexId>(v));
          buffer.clear();
          for (std::size_t i = 0; i < nbrs.size(); ++i) {
            if (rank[nbrs[i]] > rank[v]) {
              buffer.push_back({rank[nbrs[i]], nbrs[i], eids[i]});
            }
          }
          std::sort(buffer.begin(), buffer.end(),
                    [](const ForwardEntry& a, const ForwardEntry& b) {
                      return a.rank < b.rank;
                    });
          const std::uint64_t slice = offsets[v];
          for (std::size_t i = 0; i < buffer.size(); ++i) {
            neighbors[slice + i] = buffer[i].neighbor;
            edge_ids[slice + i] = buffer[i].edge;
            neighbor_ranks[slice + i] = buffer[i].rank;
          }
        }
      });
}

}  // namespace internal

std::uint64_t CountTriangles(const Graph& graph) {
  std::uint64_t count = 0;
  ForEachTriangle(graph, [&](VertexId, VertexId, VertexId, EdgeId, EdgeId,
                             EdgeId) { ++count; });
  return count;
}

std::vector<std::uint32_t> ComputeSupport(const Graph& graph) {
  std::vector<std::uint32_t> support(graph.num_edges(), 0);
  ForEachTriangle(graph,
                  [&](VertexId, VertexId, VertexId, EdgeId e_uv, EdgeId e_uw,
                      EdgeId e_vw) {
                    ++support[e_uv];
                    ++support[e_uw];
                    ++support[e_vw];
                  });
  return support;
}

std::vector<std::uint64_t> TrianglesPerVertex(const Graph& graph) {
  std::vector<std::uint64_t> count(graph.num_vertices(), 0);
  ForEachTriangle(graph, [&](VertexId u, VertexId v, VertexId w, EdgeId,
                             EdgeId, EdgeId) {
    ++count[u];
    ++count[v];
    ++count[w];
  });
  return count;
}

namespace {

// Runs fn(worker, u_begin, u_end) over chunks of the triangle-listing vertex
// range — the shared skeleton of the three counting kernels.
template <typename Fn>
void ForChunksOfVertices(VertexId n, const ParallelConfig& config, Fn&& fn) {
  ParallelForChunksIndexed(
      n, EffectiveChunks(config, n), config.num_threads,
      [&](std::uint32_t worker, std::uint32_t /*chunk*/, std::uint64_t begin,
          std::uint64_t end) {
        fn(worker, static_cast<VertexId>(begin), static_cast<VertexId>(end));
      });
}

// Shared skeleton of the support and per-vertex counting kernels: walk the
// triangles of [0, n) and bump `slots` counters, where `emit(u, v, w, e_uv,
// e_uw, e_vw, sink)` maps each triangle to the slots it increments. Every
// worker owns an n-sized mark array for the intersection. When the
// per-worker counters and marks together fit the scratch budget, every
// worker also counts into a private array and the arrays are merged in
// deterministic worker order; above it (huge graphs × many threads) one
// shared array of relaxed atomics bounds the counters at O(m) — both orders
// of commuting integer adds land on the same totals, so the result is
// bit-identical either way.
template <typename CounterT, typename EmitFn>
std::vector<CounterT> AccumulateOverTriangles(
    const internal::ForwardAdjacency& fwd, VertexId n, std::uint64_t slots,
    const ParallelConfig& config, std::uint64_t scratch_budget_bytes,
    EmitFn&& emit) {
  std::vector<CounterT> result(slots, 0);
  if (config.num_threads <= 1) {
    std::vector<EdgeId> marks;
    internal::ForEachTriangleInRange(
        fwd, 0, n, marks,
        [&](VertexId u, VertexId v, VertexId w, EdgeId e_uv, EdgeId e_uw,
            EdgeId e_vw) {
          emit(u, v, w, e_uv, e_uw, e_vw,
               [&](std::uint64_t slot) { ++result[slot]; });
        });
    return result;
  }

  // Allocated lazily: workers that never run a chunk stay empty.
  std::vector<std::vector<EdgeId>> marks(config.num_threads);
  const std::uint64_t per_worker_bytes =
      std::uint64_t{config.num_threads} *
      (slots * sizeof(CounterT) + std::uint64_t{n} * sizeof(EdgeId));
  if (per_worker_bytes <= scratch_budget_bytes) {
    // Private arrays, no cross-core traffic on the hot O(ρ·m) loop.
    std::vector<std::vector<CounterT>> per_worker(config.num_threads);
    ParallelForChunksIndexed(
        n, EffectiveChunks(config, n), config.num_threads,
        [&](std::uint32_t worker, std::uint32_t /*chunk*/,
            std::uint64_t begin, std::uint64_t end) {
          std::vector<CounterT>& local = per_worker[worker];
          if (local.empty()) local.assign(slots, 0);
          internal::ForEachTriangleInRange(
              fwd, static_cast<VertexId>(begin), static_cast<VertexId>(end),
              marks[worker],
              [&](VertexId u, VertexId v, VertexId w, EdgeId e_uv,
                  EdgeId e_uw, EdgeId e_vw) {
                emit(u, v, w, e_uv, e_uw, e_vw,
                     [&](std::uint64_t slot) { ++local[slot]; });
              });
        });
    ParallelForChunksIndexed(
        slots, EffectiveChunks(config, slots), config.num_threads,
        [&](std::uint32_t /*worker*/, std::uint32_t /*chunk*/,
            std::uint64_t begin, std::uint64_t end) {
          for (const std::vector<CounterT>& local : per_worker) {
            if (local.empty()) continue;
            for (std::uint64_t s = begin; s < end; ++s) {
              result[s] += local[s];
            }
          }
        });
    return result;
  }

  // Shared-atomic fallback: O(slots) counter memory regardless of thread
  // count.
  std::unique_ptr<std::atomic<CounterT>[]> shared(
      new std::atomic<CounterT>[slots]);
  ParallelForChunksIndexed(
      slots, EffectiveChunks(config, slots), config.num_threads,
      [&](std::uint32_t /*worker*/, std::uint32_t /*chunk*/,
          std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t s = begin; s < end; ++s) {
          shared[s].store(0, std::memory_order_relaxed);
        }
      });
  ParallelForChunksIndexed(
      n, EffectiveChunks(config, n), config.num_threads,
      [&](std::uint32_t worker, std::uint32_t /*chunk*/,
          std::uint64_t begin, std::uint64_t end) {
        internal::ForEachTriangleInRange(
            fwd, static_cast<VertexId>(begin), static_cast<VertexId>(end),
            marks[worker],
            [&](VertexId u, VertexId v, VertexId w, EdgeId e_uv, EdgeId e_uw,
                EdgeId e_vw) {
              emit(u, v, w, e_uv, e_uw, e_vw, [&](std::uint64_t slot) {
                shared[slot].fetch_add(1, std::memory_order_relaxed);
              });
            });
      });
  ParallelForChunksIndexed(
      slots, EffectiveChunks(config, slots), config.num_threads,
      [&](std::uint32_t /*worker*/, std::uint32_t /*chunk*/,
          std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t s = begin; s < end; ++s) {
          result[s] = shared[s].load(std::memory_order_relaxed);
        }
      });
  return result;
}

}  // namespace

std::uint64_t CountTriangles(const Graph& graph,
                             const ParallelConfig& config) {
  if (config.num_threads <= 1) return CountTriangles(graph);
  const internal::ForwardAdjacency fwd(graph, config);
  std::vector<std::uint64_t> per_worker(config.num_threads, 0);
  std::vector<std::vector<EdgeId>> marks(config.num_threads);
  ForChunksOfVertices(graph.num_vertices(), config,
                      [&](std::uint32_t worker, VertexId begin, VertexId end) {
                        std::uint64_t local = 0;
                        internal::ForEachTriangleInRange(
                            fwd, begin, end, marks[worker],
                            [&](VertexId, VertexId, VertexId, EdgeId, EdgeId,
                                EdgeId) { ++local; });
                        per_worker[worker] += local;
                      });
  return std::accumulate(per_worker.begin(), per_worker.end(),
                         std::uint64_t{0});
}

std::vector<std::uint32_t> ComputeSupport(const Graph& graph,
                                          const ParallelConfig& config) {
  if (config.num_threads <= 1) return ComputeSupport(graph);
  const internal::ForwardAdjacency fwd(graph, config);
  return internal::SupportFromForward(fwd, graph.num_edges(), config);
}

std::vector<std::uint64_t> TrianglesPerVertex(const Graph& graph,
                                              const ParallelConfig& config) {
  if (config.num_threads <= 1) return TrianglesPerVertex(graph);
  const internal::ForwardAdjacency fwd(graph, config);
  return internal::TrianglesPerVertexFromForward(fwd, graph.num_vertices(),
                                                 config);
}

namespace internal {

std::vector<std::uint32_t> SupportFromForward(
    const ForwardAdjacency& fwd, EdgeId m, const ParallelConfig& config,
    std::uint64_t scratch_budget_bytes) {
  const VertexId n = static_cast<VertexId>(fwd.offsets.size() - 1);
  return AccumulateOverTriangles<std::uint32_t>(
      fwd, n, m, config, scratch_budget_bytes,
      [](VertexId, VertexId, VertexId, EdgeId e_uv, EdgeId e_uw, EdgeId e_vw,
         auto&& sink) {
        sink(e_uv);
        sink(e_uw);
        sink(e_vw);
      });
}

std::vector<std::uint64_t> TrianglesPerVertexFromForward(
    const ForwardAdjacency& fwd, VertexId n, const ParallelConfig& config,
    std::uint64_t scratch_budget_bytes) {
  return AccumulateOverTriangles<std::uint64_t>(
      fwd, n, n, config, scratch_budget_bytes,
      [](VertexId u, VertexId v, VertexId w, EdgeId, EdgeId, EdgeId,
         auto&& sink) {
        sink(u);
        sink(v);
        sink(w);
      });
}

}  // namespace internal

}  // namespace tsd
