// Bound-pruned top-r search — Algorithm 4 of the paper ("bound").
//
// Two pruning techniques on top of the online search:
//  1. Graph sparsification (Property 1): an edge can appear in a k-truss of
//     some ego-network only if its *global* trussness is at least k+1, so
//     all edges with τ_G(e) ≤ k are deleted up front, along with the
//     vertices this isolates.
//  2. Upper bound score̅(v) = min(⌊d(v)/k⌋, ⌊2·m_v/(k(k-1))⌋) (Lemma 2):
//     candidates are visited in non-increasing bound order; once the answer
//     set is full and the next bound is below the r-th best score, the
//     search terminates early.
//
// The bound-computation, exact-verification, and context phases all run on
// the shared QueryPipeline; with num_threads > 1 the early termination
// happens at round granularity (rankings unchanged, see query_pipeline.h).
// The preprocessing phase peels once to the (k+1)-truss (KTrussAtFloor in
// truss/k_truss.h; no per-edge trussness is ever computed) and counts m_v
// on that subgraph, on the same thread knobs — bit-identical at any thread
// count, since the k-truss is unique. The score and context phases score
// each candidate's ego-network at its own k floor (EgoFloorPeeler in
// truss/ego_floor.h), again without trussness values.
#pragma once

#include <cstdint>

#include "core/query_session.h"
#include "core/types.h"
#include "graph/graph.h"
#include "truss/ego_truss.h"

namespace tsd {

/// Immutable after construction; the per-query sparsified subgraph and the
/// pipeline workspaces it rebinds live entirely in the session / call frame.
class BoundSearcher : public DiversitySearcher {
 public:
  explicit BoundSearcher(const Graph& graph,
                         EgoTrussMethod method = EgoTrussMethod::kHash)
      : graph_(graph), method_(method) {}

  using DiversitySearcher::SearchBatch;
  using DiversitySearcher::TopR;

  TopRResult TopR(std::uint32_t r, std::uint32_t k,
                  QuerySession& session) const override;

  /// Amortized batch path: one floor peel to the (k_min+1)-truss at the
  /// smallest requested k serves every query (Property 1 holds per k on
  /// that subgraph since its edge set contains every edge with τ_G(e) ≥ k+1
  /// for all batched k), then one ego decomposition per surviving vertex
  /// scores all thresholds. Exact scores for every candidate, so entries
  /// are bit-identical to per-query TopR.
  std::vector<TopRResult> SearchBatch(std::span<const BatchQuery> queries,
                                      QuerySession& session) const override;

  std::string name() const override { return "bound"; }

  /// The Lemma 2 upper bound of one vertex with degree `degree` and `m_v`
  /// ego edges. `m_v` is 64-bit (a dense hub's ego edge count overflows 32
  /// bits) and the division happens before any narrowing, so the bound
  /// never wraps.
  static std::uint32_t UpperBound(std::uint32_t degree, std::uint64_t m_v,
                                  std::uint32_t k);

  /// The Lemma 2 upper bounds for every vertex of `graph` (exposed for
  /// tests and the ablation benchmarks). `ego_edge_counts` is m_v per
  /// vertex, e.g. from TrianglesPerVertex.
  static std::vector<std::uint32_t> UpperBounds(
      const Graph& graph, const std::vector<std::uint64_t>& ego_edge_counts,
      std::uint32_t k);

 private:
  const Graph& graph_;
  const EgoTrussMethod method_;
};

}  // namespace tsd
