// score(v) computation (Algorithm 2): the number of maximal connected
// k-trusses in the ego-network G_N(v), with optional materialization of the
// social contexts themselves.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/disjoint_set.h"
#include "core/types.h"
#include "graph/ego_network.h"

namespace tsd {

/// Result of scoring one ego-network.
struct ScoreResult {
  std::uint32_t score = 0;
  /// Filled only when requested; contexts hold global vertex ids, each
  /// sorted, list sorted by smallest member.
  std::vector<SocialContext> contexts;
};

/// Scratch for the per-ego component count and context grouping. One per
/// worker (QueryWorkspace owns it): repeated scoring then allocates nothing
/// but the contexts it returns.
struct EgoComponentScratch {
  DisjointSet dsu;
  std::vector<char> touched;
  std::vector<std::uint32_t> slot_of_root;

  std::size_t capacity_bytes() const {
    return dsu.size() * 2 * sizeof(std::uint32_t) + touched.capacity() +
           slot_of_root.capacity() * sizeof(std::uint32_t);
  }
};

/// Counts (and optionally materializes) the connected components of the
/// k-truss of `ego`, given the per-edge trussness of the ego-network
/// (parallel to ego.edges). Lines 3–5 of Algorithm 2. Without `scratch`
/// the call allocates its own.
ScoreResult ScoreFromEgoTrussness(const EgoNetwork& ego,
                                  const std::vector<std::uint32_t>& trussness,
                                  std::uint32_t k, bool want_contexts,
                                  EgoComponentScratch* scratch = nullptr);

/// The same count from the k-truss edges alone (local-id pairs, e.g.
/// EgoFloorPeeler::Peel): equal to ScoreFromEgoTrussness at k over the
/// full decomposition, contexts included.
ScoreResult ScoreFromEgoTrussEdges(const EgoNetwork& ego,
                                   std::span<const Edge> truss_edges,
                                   bool want_contexts,
                                   EgoComponentScratch& scratch);

/// Counts components with >= min_size vertices in `ego` (Comp-Div model).
ScoreResult ScoreComponents(const EgoNetwork& ego, std::uint32_t min_size,
                            bool want_contexts);

/// Counts maximal connected k-cores in `ego` (Core-Div model). Requires the
/// ego CSR (BuildCsr).
ScoreResult ScoreKCores(EgoNetwork& ego, std::uint32_t k, bool want_contexts);

}  // namespace tsd
