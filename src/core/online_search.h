// The online (baseline) top-r search — Algorithm 3 of the paper.
//
// Computes score(v) for every vertex from scratch and keeps the r best. No
// pruning; this is the reference implementation every optimized method is
// tested against, and the "baseline" row of Table 2. Each ego-network is
// scored by computing its k-truss directly (EgoFloorPeeler: a (k−1)-core
// prefilter, then support counting and a single-floor peel), which equals
// thresholding Algorithm 2's full decomposition at k: the k-truss is the
// set of edges of trussness ≥ k. The batch path, which needs every k at
// once, still decomposes each ego fully. Runs on the shared QueryPipeline,
// so it honours QueryOptions like every other searcher.
#pragma once

#include <cstdint>

#include "core/query_session.h"
#include "core/scoring.h"
#include "core/types.h"
#include "graph/graph.h"
#include "truss/ego_truss.h"

namespace tsd {

/// Immutable after construction; all query scratch lives in the session.
class OnlineSearcher : public DiversitySearcher {
 public:
  /// `method` selects the ego truss decomposition kernel of the batch path
  /// (the paper's baseline uses the hash kernel).
  explicit OnlineSearcher(const Graph& graph,
                          EgoTrussMethod method = EgoTrussMethod::kHash)
      : graph_(graph), method_(method) {}

  using DiversitySearcher::SearchBatch;
  using DiversitySearcher::TopR;

  TopRResult TopR(std::uint32_t r, std::uint32_t k,
                  QuerySession& session) const override;

  /// Amortized batch path: one ego decomposition per vertex feeds every
  /// query's collector (bit-identical to per-query TopR).
  std::vector<TopRResult> SearchBatch(std::span<const BatchQuery> queries,
                                      QuerySession& session) const override;

  std::string name() const override { return "baseline"; }

  /// Computes score(v) and contexts for a single vertex (Algorithm 2, at k
  /// only). The convenience overload runs on the default session.
  ScoreResult ScoreVertex(VertexId v, std::uint32_t k, bool want_contexts,
                          QuerySession& session) const;
  ScoreResult ScoreVertex(VertexId v, std::uint32_t k, bool want_contexts) {
    return ScoreVertex(v, k, want_contexts, default_session());
  }

 private:
  QueryPipeline& Pipeline(QuerySession& session) const {
    return session.PipelineFor(graph_, method_);
  }

  const Graph& graph_;
  const EgoTrussMethod method_;
};

}  // namespace tsd
