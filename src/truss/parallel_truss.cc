#include "truss/parallel_truss.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>

#include "truss/peeling.h"

namespace tsd {
namespace {

// Edge lifecycle inside the frontier-parallel peel.
enum EdgeState : std::uint8_t {
  kAlive = 0,     // still in the graph
  kFrontier = 1,  // being removed in the current sub-round
  kRemoved = 2,   // trussness already assigned
};

// Frontiers below this many edges per worker are scattered inline: a
// sub-round spawns (and joins) its worker threads, and on a deep, narrow
// peel — many sub-rounds of a handful of edges — the thread churn would
// cost more than the decrements it distributes.
constexpr std::uint64_t kMinFrontierPerWorker = 512;

}  // namespace

std::vector<std::uint32_t> TrussnessFromSupport(
    const Graph& graph, std::vector<std::uint32_t> support,
    const ParallelConfig& config) {
  const EdgeId m = graph.num_edges();
  TSD_CHECK(support.size() == m);
  if (config.num_threads <= 1) {
    return PeelSupportToTrussness(CsrViewOf(graph), std::move(support));
  }

  std::vector<std::uint32_t> trussness(m, 2);
  if (m == 0) return trussness;

  std::vector<std::uint8_t> state(m, kAlive);
  std::vector<EdgeId> alive(m);
  std::iota(alive.begin(), alive.end(), EdgeId{0});
  std::vector<EdgeId> frontier;
  std::vector<EdgeId> next_frontier;
  // Pending support decrements of the current sub-round. Atomic adds
  // commute, so the per-edge totals — the only thing read back — are
  // deterministic regardless of worker interleaving.
  std::unique_ptr<std::atomic<std::uint32_t>[]> delta(
      new std::atomic<std::uint32_t>[m]);
  for (EdgeId e = 0; e < m; ++e) delta[e].store(0, std::memory_order_relaxed);
  std::vector<std::vector<EdgeId>> touched(config.num_threads);

  std::uint32_t level = 0;  // current peeling level in support space (k-2)
  while (!alive.empty()) {
    // Compact the alive list, advance the level to the minimum surviving
    // support, and collect the level's initial frontier.
    std::size_t out = 0;
    std::uint32_t min_support = UINT32_MAX;
    for (const EdgeId e : alive) {
      if (state[e] != kAlive) continue;
      alive[out++] = e;
      min_support = std::min(min_support, support[e]);
    }
    alive.resize(out);
    if (out == 0) break;
    level = std::max(level, min_support);
    frontier.clear();
    for (const EdgeId e : alive) {
      if (support[e] <= level) frontier.push_back(e);
    }

    while (!frontier.empty()) {
      for (const EdgeId e : frontier) state[e] = kFrontier;

      // Scatter phase: every frontier edge takes its trussness and walks
      // its surviving triangles. state[] is read-only here (transitions
      // happen strictly between sub-rounds), trussness writes are disjoint,
      // and decrements go through the atomic delta array — so workers never
      // race. A triangle with several frontier edges is settled by the
      // smallest edge id among them, mirroring the single pop that peels it
      // in the sequential bucket-queue discipline.
      auto scatter = [&](std::uint32_t worker, std::uint64_t begin,
                         std::uint64_t end) {
        std::vector<EdgeId>& local_touched = touched[worker];
        for (std::uint64_t i = begin; i < end; ++i) {
          const EdgeId e = frontier[i];
          trussness[e] = level + 2;

          const auto [u0, v0] = graph.edge(e);
          // Scan the smaller adjacency; binary-search the larger.
          VertexId u = u0;
          VertexId v = v0;
          if (graph.degree(u) > graph.degree(v)) std::swap(u, v);
          const auto u_nbrs = graph.neighbors(u);
          const auto u_eids = graph.incident_edges(u);
          const auto v_nbrs = graph.neighbors(v);
          const auto v_eids = graph.incident_edges(v);
          for (std::size_t j = 0; j < u_nbrs.size(); ++j) {
            const VertexId w = u_nbrs[j];
            if (w == v) continue;
            const EdgeId e_uw = u_eids[j];
            if (state[e_uw] == kRemoved) continue;
            const auto it = std::lower_bound(v_nbrs.begin(), v_nbrs.end(), w);
            if (it == v_nbrs.end() || *it != w) continue;
            const EdgeId e_vw = v_eids[it - v_nbrs.begin()];
            if (state[e_vw] == kRemoved) continue;
            // Triangle (u, v, w) is alive and loses edge e. Let the
            // smallest frontier edge of the triangle apply the loss.
            if (state[e_uw] == kFrontier && e_uw < e) continue;
            if (state[e_vw] == kFrontier && e_vw < e) continue;
            if (state[e_uw] == kAlive) {
              delta[e_uw].fetch_add(1, std::memory_order_relaxed);
              local_touched.push_back(e_uw);
            }
            if (state[e_vw] == kAlive) {
              delta[e_vw].fetch_add(1, std::memory_order_relaxed);
              local_touched.push_back(e_vw);
            }
          }
        }
      };
      if (frontier.size() < kMinFrontierPerWorker * config.num_threads) {
        scatter(0, 0, frontier.size());
      } else {
        ParallelForChunksIndexed(
            frontier.size(), EffectiveChunks(config, frontier.size()),
            config.num_threads,
            [&](std::uint32_t worker, std::uint32_t /*chunk*/,
                std::uint64_t begin, std::uint64_t end) {
              scatter(worker, begin, end);
            });
      }

      // Apply phase (single-threaded): retire the frontier, fold the
      // decrements into the supports (clamped at the level, exactly like
      // DecreaseKeyClamped), and collect the edges that reached the level
      // as the next sub-round's frontier. Duplicate touched entries are
      // no-ops because the first application zeroes delta[e].
      for (const EdgeId e : frontier) state[e] = kRemoved;
      next_frontier.clear();
      for (std::vector<EdgeId>& local_touched : touched) {
        for (const EdgeId e : local_touched) {
          const std::uint32_t d = delta[e].load(std::memory_order_relaxed);
          if (d == 0) continue;
          delta[e].store(0, std::memory_order_relaxed);
          const std::uint32_t room = support[e] - level;  // support > level
          if (d >= room) {
            support[e] = level;
            next_frontier.push_back(e);
          } else {
            support[e] -= d;
          }
        }
        local_touched.clear();
      }
      frontier.swap(next_frontier);
    }
  }
  return trussness;
}

std::vector<std::uint32_t> TrussnessFromSupportJacobi(
    const Graph& graph, std::vector<std::uint32_t> support,
    const ParallelConfig& config) {
  const EdgeId m = graph.num_edges();
  TSD_CHECK(support.size() == m);
  std::vector<std::uint32_t> trussness(m, 2);
  if (m == 0) return trussness;

  const std::uint32_t num_workers = std::max(1U, config.num_threads);
  std::vector<std::uint8_t> state(m, kAlive);
  std::vector<std::uint8_t> queued(m, 0);  // dedup flag for recompute[]
  std::vector<EdgeId> alive(m);
  std::iota(alive.begin(), alive.end(), EdgeId{0});
  std::vector<EdgeId> frontier;
  std::vector<EdgeId> next_frontier;
  std::vector<EdgeId> recompute;
  std::vector<std::uint32_t> recomputed;  // by recompute[] position
  std::vector<std::vector<EdgeId>> touched(num_workers);

  std::uint32_t level = 0;  // current peeling level in support space (k-2)
  while (!alive.empty()) {
    // Identical level bookkeeping to the Bsp peel: compact the alive list,
    // advance the level to the minimum surviving support, seed the frontier.
    std::size_t out = 0;
    std::uint32_t min_support = UINT32_MAX;
    for (const EdgeId e : alive) {
      if (state[e] != kAlive) continue;
      alive[out++] = e;
      min_support = std::min(min_support, support[e]);
    }
    alive.resize(out);
    if (out == 0) break;
    level = std::max(level, min_support);
    frontier.clear();
    for (const EdgeId e : alive) {
      if (support[e] <= level) frontier.push_back(e);
    }

    while (!frontier.empty()) {
      for (const EdgeId e : frontier) state[e] = kFrontier;

      // Scatter: assign trussness and collect the alive third edges of the
      // surviving triangles each frontier edge destroys. Unlike the Bsp
      // scatter there is nothing to count and no tie-break — the recompute
      // pass below re-derives supports from scratch, so a triangle with
      // several frontier edges may enqueue its third edge several times
      // (the queued[] flag dedups at commit).
      auto scatter = [&](std::uint32_t worker, std::uint64_t begin,
                         std::uint64_t end) {
        std::vector<EdgeId>& local_touched = touched[worker];
        for (std::uint64_t i = begin; i < end; ++i) {
          const EdgeId e = frontier[i];
          trussness[e] = level + 2;

          const auto [u0, v0] = graph.edge(e);
          VertexId u = u0;
          VertexId v = v0;
          if (graph.degree(u) > graph.degree(v)) std::swap(u, v);
          const auto u_nbrs = graph.neighbors(u);
          const auto u_eids = graph.incident_edges(u);
          const auto v_nbrs = graph.neighbors(v);
          const auto v_eids = graph.incident_edges(v);
          for (std::size_t j = 0; j < u_nbrs.size(); ++j) {
            const VertexId w = u_nbrs[j];
            if (w == v) continue;
            const EdgeId e_uw = u_eids[j];
            if (state[e_uw] == kRemoved) continue;
            const auto it = std::lower_bound(v_nbrs.begin(), v_nbrs.end(), w);
            if (it == v_nbrs.end() || *it != w) continue;
            const EdgeId e_vw = v_eids[it - v_nbrs.begin()];
            if (state[e_vw] == kRemoved) continue;
            if (state[e_uw] == kAlive) local_touched.push_back(e_uw);
            if (state[e_vw] == kAlive) local_touched.push_back(e_vw);
          }
        }
      };
      if (frontier.size() < kMinFrontierPerWorker * num_workers) {
        scatter(0, 0, frontier.size());
      } else {
        ParallelForChunksIndexed(
            frontier.size(), EffectiveChunks(config, frontier.size()),
            config.num_threads,
            [&](std::uint32_t worker, std::uint32_t /*chunk*/,
                std::uint64_t begin, std::uint64_t end) {
              scatter(worker, begin, end);
            });
      }

      // Commit 1 (serial): retire the frozen frontier, dedup the touched
      // edges that are still alive into the recompute list.
      for (const EdgeId e : frontier) state[e] = kRemoved;
      recompute.clear();
      for (std::vector<EdgeId>& local_touched : touched) {
        for (const EdgeId e : local_touched) {
          if (queued[e] != 0) continue;
          queued[e] = 1;
          recompute.push_back(e);
        }
        local_touched.clear();
      }

      // Commit 2 (parallel): the exact support of each touched edge in the
      // surviving graph — count common neighbors whose two cross edges are
      // not removed. state[] is read-only here and the recomputed[] writes
      // are disjoint per index, so the phase is race- and tie-break-free.
      recomputed.resize(recompute.size());
      auto recount = [&](std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t i = begin; i < end; ++i) {
          const EdgeId e = recompute[i];
          const auto [u0, v0] = graph.edge(e);
          VertexId u = u0;
          VertexId v = v0;
          if (graph.degree(u) > graph.degree(v)) std::swap(u, v);
          const auto u_nbrs = graph.neighbors(u);
          const auto u_eids = graph.incident_edges(u);
          const auto v_nbrs = graph.neighbors(v);
          const auto v_eids = graph.incident_edges(v);
          std::uint32_t count = 0;
          for (std::size_t j = 0; j < u_nbrs.size(); ++j) {
            const VertexId w = u_nbrs[j];
            if (w == v) continue;
            if (state[u_eids[j]] == kRemoved) continue;
            const auto it = std::lower_bound(v_nbrs.begin(), v_nbrs.end(), w);
            if (it == v_nbrs.end() || *it != w) continue;
            if (state[v_eids[it - v_nbrs.begin()]] == kRemoved) continue;
            ++count;
          }
          recomputed[i] = count;
        }
      };
      if (recompute.size() < kMinFrontierPerWorker * num_workers) {
        recount(0, recompute.size());
      } else {
        ParallelForChunksIndexed(
            recompute.size(), EffectiveChunks(config, recompute.size()),
            config.num_threads,
            [&](std::uint32_t /*worker*/, std::uint32_t /*chunk*/,
                std::uint64_t begin, std::uint64_t end) {
              recount(begin, end);
            });
      }

      // Commit 3 (serial): store the fresh supports with the same level
      // clamp as DecreaseKeyClamped, collect the next frontier, and reset
      // the dedup flags.
      next_frontier.clear();
      for (std::size_t i = 0; i < recompute.size(); ++i) {
        const EdgeId e = recompute[i];
        queued[e] = 0;
        if (recomputed[i] <= level) {
          support[e] = level;
          next_frontier.push_back(e);
        } else {
          support[e] = recomputed[i];
        }
      }
      frontier.swap(next_frontier);
    }
  }
  return trussness;
}

}  // namespace tsd
