// Influence maximization via reverse-reachable (RIS) sampling.
//
// The paper seeds its contagion experiments with 50 vertices chosen by the
// IMM algorithm [37]. IMM's core estimator is implemented here: sample many
// random reverse-reachable (RR) sets under the IC model, then greedily pick
// the seeds that cover the most sets (a (1-1/e)-approximate max-cover).
// IMM's adaptive martingale stopping rule is replaced by an explicit sample
// count (RisOptions::num_samples): the experiments only need a good,
// reproducible seed set to start the cascades from, not IMM's certified
// approximation guarantee.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace tsd {

struct RisOptions {
  /// Number of reverse-reachable sets to sample.
  std::uint32_t num_samples = 50000;
  /// IC edge probability.
  double probability = 0.01;
  std::uint64_t seed = 1;
};

/// Selects `k` seeds maximizing estimated IC spread.
std::vector<VertexId> SelectSeedsRis(const Graph& graph, std::uint32_t k,
                                     const RisOptions& options);

/// Degree heuristic (top-k by degree) — cheap fallback / comparison.
std::vector<VertexId> SelectSeedsByDegree(const Graph& graph, std::uint32_t k);

}  // namespace tsd
