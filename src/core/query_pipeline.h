// The shared per-vertex query engine behind every DiversitySearcher.
//
// The full paper (arXiv:2007.05437) stresses that per-vertex ego-truss work
// is embarrassingly parallel; before this engine only the index *builders*
// exploited that. QueryPipeline owns one reusable workspace per worker
// thread (ego-network extractor + truss decomposer + single-k floor peeler
// + scratch EgoNetwork + trussness buffer) and runs candidate vertices
// through a caller-supplied scoring kernel via the chunked parallel-for in
// common/parallel.h. The
// steady-state hot path performs no heap allocation: every buffer a kernel
// needs lives in the workspace and is reused vertex to vertex.
//
// Four entry points cover every searcher: ScoreRange scores a whole
// candidate range, ScoreOrdered scores candidates in the order of their
// upper bounds and stops once no remaining bound can enter the top r (the
// paper's Algorithms 4 and 6), ForEach runs any per-item loop (bound
// passes, grouped contexts), and MaterializeEntries fills the winners'
// contexts. Both scans feed a span of collectors, one per query, so a
// single query and a batch share one kernel.
//
// Determinism: the top-r answer set under the library-wide total order
// (score desc, id asc) is unique, so per-worker collectors merged in worker
// order yield rankings bit-identical to the sequential scan at any thread
// count. Bound-ordered scans prune conservatively — a parallel round only
// skips candidates the sequential scan would also have skipped — so
// rankings match there too; only the number of exactly-scored candidates
// (SearchStats::vertices_scored) can grow, because parallel rounds prune at
// batch rather than per-vertex granularity.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "core/query_scratch.h"
#include "core/scoring.h"
#include "core/top_r_collector.h"
#include "core/types.h"
#include "graph/ego_network.h"
#include "truss/ego_floor.h"
#include "truss/ego_truss.h"

namespace tsd {

/// Per-worker scratch: everything a scoring kernel needs, reused across
/// vertices and across queries. Not thread-safe; the pipeline hands each
/// worker its own instance.
class QueryWorkspace {
 public:
  /// `graph` may be null for index-only pipelines (TSD/GCT scans, which
  /// never touch an ego-network).
  QueryWorkspace(const Graph* graph, EgoTrussMethod method);

  /// Retargets the extractor to another graph, reusing scratch.
  void Rebind(const Graph& graph);

  /// Extracts G_N(v) into the reusable scratch ego and returns it.
  EgoNetwork& ExtractEgo(VertexId v);

  /// ExtractEgo + truss decomposition; trussness() is parallel to the
  /// returned ego's edges.
  EgoNetwork& DecomposeEgo(VertexId v);

  /// ExtractEgo + the single-threshold kernel: scores G_N(v) at k from its
  /// k-truss alone (EgoFloorPeeler, truss/ego_floor.h), with no trussness
  /// decomposition. Adds the ego edges that reached support counting to
  /// this workspace's counter (see TakeEgoEdgesSupported).
  ScoreResult ScoreEgoAtFloor(VertexId v, std::uint32_t k,
                              bool want_contexts);

  /// Returns and zeroes the ScoreEgoAtFloor work counter.
  std::uint64_t TakeEgoEdgesSupported() {
    return std::exchange(ego_edges_supported_, 0);
  }

  const std::vector<std::uint32_t>& trussness() const { return trussness_; }
  EgoNetwork& ego() { return ego_; }
  EgoTrussDecomposer& decomposer() { return decomposer_; }

  /// Component-count and context-grouping scratch for ScoreFromEgoTrussness
  /// and ScoreFromEgoTrussEdges.
  EgoComponentScratch& component_scratch() { return component_scratch_; }

  /// Reusable scratch for index score/context kernels (TSD endpoint dedup,
  /// GCT context grouping) — no steady-state allocation across queries.
  IndexQueryScratch& index_scratch() { return index_scratch_; }

  /// Reusable multi-threshold scorer for batch queries.
  MultiKEgoScorer& multi_scorer() { return multi_scorer_; }

  /// Generic per-worker u32 buffer (per-threshold score staging in batch
  /// kernels).
  std::vector<std::uint32_t>& u32_scratch() { return u32_scratch_; }

  /// Bytes currently reserved by the reusable scratch structures; exposed
  /// so tests can assert the steady state allocates nothing new.
  std::size_t scratch_capacity_bytes() const {
    return index_scratch_.capacity_bytes() + multi_scorer_.capacity_bytes() +
           floor_peeler_.capacity_bytes() +
           component_scratch_.capacity_bytes() +
           trussness_.capacity() * sizeof(std::uint32_t) +
           u32_scratch_.capacity() * sizeof(std::uint32_t);
  }

 private:
  std::optional<EgoNetworkExtractor> extractor_;
  EgoTrussDecomposer decomposer_;
  EgoFloorPeeler floor_peeler_;
  EgoComponentScratch component_scratch_;
  std::uint64_t ego_edges_supported_ = 0;
  EgoNetwork ego_;
  std::vector<std::uint32_t> trussness_;
  IndexQueryScratch index_scratch_;
  MultiKEgoScorer multi_scorer_;
  std::vector<std::uint32_t> u32_scratch_;
};

/// Reusable parallel engine for per-vertex scoring and context
/// materialization. Construct once per (graph, method, options) and share
/// across queries; all entry points are deterministic at any thread count.
///
/// Kernels receive (QueryWorkspace&, VertexId) and must not touch state
/// outside their workspace; the pipeline never runs one workspace on two
/// threads at once.
class QueryPipeline {
 public:
  /// Full pipeline whose workspaces can extract ego-networks of `graph`.
  QueryPipeline(const Graph& graph, EgoTrussMethod method,
                const QueryOptions& options);

  /// Index-only pipeline: kernels read a prebuilt index and never need an
  /// extractor (TSD / GCT query scans).
  explicit QueryPipeline(const QueryOptions& options);

  /// Retargets every workspace to another graph (same or smaller id space
  /// reuses all scratch). Used by the bound search for its per-query
  /// sparsified subgraph.
  void Rebind(const Graph& graph);

  std::uint32_t num_threads() const { return options_.num_threads; }

  /// Sum of every workspace's TakeEgoEdgesSupported (zeroes them all). A
  /// searcher takes it once before its score phase, to drop what earlier
  /// phases left, and once after, for SearchStats::ego_edges_supported.
  std::uint64_t TakeEgoEdgesSupported();

  /// Direct access to one worker's scratch, for single-vertex entry points
  /// (tsdtool score, HybridSearcher's per-winner recomputation) that want
  /// workspace reuse without a full scan. Caller must not be inside a
  /// pipeline run.
  QueryWorkspace& workspace(std::uint32_t worker) {
    TSD_DCHECK(worker < workspaces_.size());
    return *workspaces_[worker];
  }

  /// Scores every vertex in [0, num_candidates) for every query at once:
  /// `fn(workspace, v, scores)` fills scores[q] for each q in
  /// [0, collectors.size()), and each score is offered into collectors[q].
  /// A single query passes a one-element span. Because the top-r set under
  /// the total order is unique, each collector ends bit-identical to a
  /// sequential pass at any thread count. Returns the number of vertices
  /// scored (== num_candidates, or 0 with no collectors).
  template <typename ScoreFn>
  std::uint64_t ScoreRange(VertexId num_candidates,
                           std::span<TopRCollector* const> collectors,
                           ScoreFn&& fn);

  /// Bound-ordered scan with early termination (Algorithm 4 discipline)
  /// over [0, bounds.size()): visits candidates by non-increasing
  /// bounds[v], ties by ascending id, and stops once every collector can
  /// prune the remaining range. bounds[v] must upper-bound v's score for
  /// EVERY collector's query, so a skipped candidate could not have
  /// displaced any query's r-th answer and each collector ends
  /// bit-identical to a full ScoreRange pass. Sequential runs prune per
  /// vertex; parallel runs prune between rounds of geometrically growing
  /// size (kRampBasePerThread). `fn` is ScoreRange's. Returns the number of
  /// candidates exactly scored.
  template <typename ScoreFn>
  std::uint64_t ScoreOrdered(std::span<const std::uint32_t> bounds,
                             std::span<TopRCollector* const> collectors,
                             ScoreFn&& fn);

  /// Parallel loop `fn(workspace, i)` over i in [0, num_items) with one
  /// workspace per worker. Deterministic as long as distinct items write
  /// disjoint output slots (the grouped context-materialization pattern of
  /// the batch searchers).
  template <typename ItemFn>
  void ForEach(std::uint64_t num_items, ItemFn&& fn);

  /// Materializes the winners' TopREntry list (the context phase shared by
  /// all searchers): for each (vertex, score) of `ranked`, in rank order,
  /// fills entry i with contexts from
  /// `fn(workspace, vertex) -> std::vector<SocialContext>`.
  template <typename ContextFn>
  void MaterializeEntries(
      const std::vector<std::pair<VertexId, std::uint32_t>>& ranked,
      std::vector<TopREntry>* entries, ContextFn&& fn);

 private:
  /// Round sizes of ScoreOrdered's parallel scan: the first round scores
  /// max(threads × kRampBasePerThread, largest r) candidates, so a search
  /// that stops after a handful (Example 3 scores exactly one vertex) does
  /// not pay for a chunk per worker, and each later round is kRampGrowth
  /// times larger, which bounds the number of round barriers on long scans.
  static constexpr std::uint64_t kRampBasePerThread = 4;
  static constexpr std::uint64_t kRampGrowth = 2;

  /// One worker's local collector and score staging per query.
  struct WorkerLocals {
    std::vector<TopRCollector> collectors;
    std::vector<std::uint32_t> scores;
  };

  std::uint32_t ResolveChunks(std::uint64_t total) const;

  /// Locals for every worker, sized to `collectors`.
  std::vector<WorkerLocals> MakeLocals(
      std::span<TopRCollector* const> collectors) const;

  /// The parallel step of both scans: scores vertex_at(i) for i in
  /// [0, count), split into `num_chunks` chunks, into the workers' locals,
  /// then merges every query's locals into its collector in worker order
  /// (TakeRanked leaves the locals empty for the next round).
  template <typename VertexAt, typename ScoreFn>
  void ScoreChunks(std::uint64_t count, std::uint32_t num_chunks,
                   const VertexAt& vertex_at,
                   std::span<TopRCollector* const> collectors,
                   std::vector<WorkerLocals>& locals, ScoreFn& fn);

  QueryOptions options_;
  // unique_ptr keeps workspace addresses stable and sidesteps copying the
  // non-copyable scratch when the vector is built.
  std::vector<std::unique_ptr<QueryWorkspace>> workspaces_;
};

/// Lazily builds (and caches) a pipeline so a searcher can keep one set of
/// workspaces alive across queries and rebuild only when the requested
/// options change.
class PipelineCache {
 public:
  QueryPipeline& For(const Graph& graph, EgoTrussMethod method,
                     const QueryOptions& options);

 private:
  std::unique_ptr<QueryPipeline> pipeline_;
  QueryOptions cached_options_;
  const Graph* cached_graph_ = nullptr;
  EgoTrussMethod cached_method_ = EgoTrussMethod::kAuto;
};

/// Largest --threads (and tsdtool serve --shards) value the flag readers
/// accept: each worker costs an OS thread and a workspace with an n-sized
/// mark array, so a mistyped count must fail instead of exhausting memory.
inline constexpr std::int64_t kMaxThreadsFlag = 1024;

/// Reads the canonical --threads / --chunks / --plan pipeline knobs (shared
/// by tsdtool and every query benchmark). Throws FlagError when --threads
/// is outside [1, kMaxThreadsFlag] or --chunks outside [0, UINT32_MAX].
QueryOptions QueryOptionsFromFlags(const Flags& flags);

/// The preprocessing-layer view of the same knobs: graph/truss kernels
/// (global truss decomposition, triangle counting, the global ego listing)
/// take a common/ ParallelConfig so they stay below core/ in the layering.
inline ParallelConfig ToParallelConfig(const QueryOptions& options) {
  return ParallelConfig{options.num_threads, options.num_chunks,
                        options.truss_plan};
}

// ---------------------------------------------------------------------------
// Template implementations.

template <typename VertexAt, typename ScoreFn>
void QueryPipeline::ScoreChunks(std::uint64_t count, std::uint32_t num_chunks,
                                const VertexAt& vertex_at,
                                std::span<TopRCollector* const> collectors,
                                std::vector<WorkerLocals>& locals,
                                ScoreFn& fn) {
  ParallelForChunksIndexed(
      count, num_chunks, options_.num_threads,
      [&](std::uint32_t worker, std::uint32_t /*chunk*/, std::uint64_t begin,
          std::uint64_t end) {
        QueryWorkspace& ws = *workspaces_[worker];
        WorkerLocals& local = locals[worker];
        for (std::uint64_t i = begin; i < end; ++i) {
          const VertexId v = vertex_at(i);
          fn(ws, v, local.scores.data());
          for (std::size_t q = 0; q < collectors.size(); ++q) {
            local.collectors[q].Offer(v, local.scores[q]);
          }
        }
      });
  // Any merge order yields the same collector state, because the top-r set
  // under the total order is unique.
  for (std::size_t q = 0; q < collectors.size(); ++q) {
    for (WorkerLocals& local : locals) {
      for (const auto& [vertex, score] : local.collectors[q].TakeRanked()) {
        collectors[q]->Offer(vertex, score);
      }
    }
  }
}

template <typename ScoreFn>
std::uint64_t QueryPipeline::ScoreRange(
    VertexId num_candidates, std::span<TopRCollector* const> collectors,
    ScoreFn&& fn) {
  if (collectors.empty()) return 0;
  if (options_.num_threads == 1) {
    QueryWorkspace& ws = *workspaces_[0];
    std::vector<std::uint32_t> scores(collectors.size());
    for (VertexId v = 0; v < num_candidates; ++v) {
      fn(ws, v, scores.data());
      for (std::size_t q = 0; q < collectors.size(); ++q) {
        collectors[q]->Offer(v, scores[q]);
      }
    }
    return num_candidates;
  }
  std::vector<WorkerLocals> locals = MakeLocals(collectors);
  ScoreChunks(
      num_candidates, ResolveChunks(num_candidates),
      [](std::uint64_t i) { return static_cast<VertexId>(i); }, collectors,
      locals, fn);
  return num_candidates;
}

template <typename ScoreFn>
std::uint64_t QueryPipeline::ScoreOrdered(
    std::span<const std::uint32_t> bounds,
    std::span<TopRCollector* const> collectors, ScoreFn&& fn) {
  if (collectors.empty()) return 0;
  // Stable, so ties keep ascending id. On the many equal bounds of a real
  // bound array this merge sort runs 3–4x faster than an introsort with an
  // explicit id tie-break.
  std::vector<VertexId> order(bounds.size());
  std::iota(order.begin(), order.end(), VertexId{0});
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return bounds[a] > bounds[b];
  });
  const auto all_can_prune = [&](VertexId v) {
    for (TopRCollector* collector : collectors) {
      if (!collector->CanPrune(bounds[v], v)) return false;
    }
    return true;
  };

  std::uint64_t scored = 0;
  if (options_.num_threads == 1) {
    QueryWorkspace& ws = *workspaces_[0];
    std::vector<std::uint32_t> scores(collectors.size());
    for (VertexId v : order) {
      if (all_can_prune(v)) break;  // early termination
      fn(ws, v, scores.data());
      for (std::size_t q = 0; q < collectors.size(); ++q) {
        collectors[q]->Offer(v, scores[q]);
      }
      ++scored;
    }
    return scored;
  }

  // Rounds of one chunk per worker; the termination check runs between
  // rounds against the merged collectors. Candidates are bound-sorted, so
  // checking the first candidate of a round covers the whole round.
  const std::uint32_t num_threads = options_.num_threads;
  const std::uint64_t total = order.size();
  const std::uint64_t chunk_size =
      (total + ResolveChunks(total) - 1) / ResolveChunks(total);
  const std::uint64_t max_round_size =
      std::max<std::uint64_t>(chunk_size * num_threads, num_threads);
  std::uint64_t max_capacity = 0;
  for (TopRCollector* collector : collectors) {
    max_capacity = std::max<std::uint64_t>(max_capacity, collector->capacity());
  }
  std::uint64_t round_size = std::min<std::uint64_t>(
      max_round_size,
      std::max<std::uint64_t>(num_threads * kRampBasePerThread, max_capacity));
  std::vector<WorkerLocals> locals = MakeLocals(collectors);
  std::uint64_t round_begin = 0;
  while (round_begin < total) {
    if (all_can_prune(order[round_begin])) break;
    const std::uint64_t round_end = std::min(total, round_begin + round_size);
    ScoreChunks(
        round_end - round_begin, num_threads,
        [&](std::uint64_t i) { return order[round_begin + i]; }, collectors,
        locals, fn);
    scored += round_end - round_begin;
    round_begin = round_end;
    round_size = std::min(max_round_size, round_size * kRampGrowth);
  }
  return scored;
}

template <typename ItemFn>
void QueryPipeline::ForEach(std::uint64_t num_items, ItemFn&& fn) {
  if (options_.num_threads == 1 || num_items < 2) {
    QueryWorkspace& ws = *workspaces_[0];
    for (std::uint64_t i = 0; i < num_items; ++i) fn(ws, i);
    return;
  }
  ParallelForChunksIndexed(
      num_items, ResolveChunks(num_items), options_.num_threads,
      [&](std::uint32_t worker, std::uint32_t /*chunk*/, std::uint64_t begin,
          std::uint64_t end) {
        QueryWorkspace& ws = *workspaces_[worker];
        for (std::uint64_t i = begin; i < end; ++i) fn(ws, i);
      });
}

template <typename ContextFn>
void QueryPipeline::MaterializeEntries(
    const std::vector<std::pair<VertexId, std::uint32_t>>& ranked,
    std::vector<TopREntry>* entries, ContextFn&& fn) {
  entries->resize(ranked.size());
  // Each winner fills its own rank slot, so output order is deterministic
  // regardless of which worker materializes which entry.
  ForEach(ranked.size(), [&](QueryWorkspace& ws, std::uint64_t i) {
    TopREntry& entry = (*entries)[i];
    entry.vertex = ranked[i].first;
    entry.score = ranked[i].second;
    entry.contexts = fn(ws, ranked[i].first);
  });
}

}  // namespace tsd
