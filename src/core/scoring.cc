#include "core/scoring.h"

#include <algorithm>

#include "common/check.h"
#include "common/disjoint_set.h"
#include "truss/core_decomposition.h"

namespace tsd {
namespace {

/// Groups the local vertices with include[i] into components of `dsu` and
/// converts to global-id contexts. Local ids ascend and ToGlobal is monotone
/// in the local id, so member lists come out sorted and contexts appear in
/// order of smallest member with no sorting.
std::vector<SocialContext> MaterializeContexts(
    const EgoNetwork& ego, DisjointSet& dsu, const std::vector<char>& include,
    std::vector<std::uint32_t>& slot_of_root) {
  std::vector<SocialContext> contexts;
  GroupBySet(
      dsu, slot_of_root, &contexts,
      [&](std::uint32_t i) { return include[i] != 0; },
      [&](SocialContext& context, std::uint32_t i) {
        context.push_back(ego.ToGlobal(i));
      });
  return contexts;
}

/// Components of the kept ego edges, those e of `edges` with keep(e): each
/// component is a tree under the union count, so #components = #touched
/// vertices − #successful unions.
template <typename Keep>
ScoreResult EdgeComponents(const EgoNetwork& ego, std::span<const Edge> edges,
                           Keep keep, bool want_contexts,
                           EgoComponentScratch& scratch) {
  const std::uint32_t l = ego.num_members();
  scratch.dsu.Reset(l);
  scratch.touched.assign(l, 0);
  std::uint32_t touched_count = 0;
  std::uint32_t union_count = 0;
  for (EdgeId e = 0; e < edges.size(); ++e) {
    if (!keep(e)) continue;
    const auto [u, v] = edges[e];
    if (scratch.dsu.Union(u, v)) ++union_count;
    for (std::uint32_t endpoint : {u, v}) {
      if (!scratch.touched[endpoint]) {
        scratch.touched[endpoint] = 1;
        ++touched_count;
      }
    }
  }

  ScoreResult result;
  result.score = touched_count - union_count;
  if (want_contexts && result.score > 0) {
    result.contexts = MaterializeContexts(ego, scratch.dsu, scratch.touched,
                                          scratch.slot_of_root);
    TSD_DCHECK(result.contexts.size() == result.score);
  }
  return result;
}

}  // namespace

ScoreResult ScoreFromEgoTrussness(const EgoNetwork& ego,
                                  const std::vector<std::uint32_t>& trussness,
                                  std::uint32_t k, bool want_contexts,
                                  EgoComponentScratch* scratch) {
  TSD_CHECK(k >= 2);
  TSD_CHECK(trussness.size() == ego.edges.size());
  EgoComponentScratch local;
  return EdgeComponents(
      ego, ego.edges, [&](EdgeId e) { return trussness[e] >= k; },
      want_contexts, scratch != nullptr ? *scratch : local);
}

ScoreResult ScoreFromEgoTrussEdges(const EgoNetwork& ego,
                                   std::span<const Edge> truss_edges,
                                   bool want_contexts,
                                   EgoComponentScratch& scratch) {
  if (truss_edges.empty()) return {};
  return EdgeComponents(
      ego, truss_edges, [](EdgeId) { return true; }, want_contexts, scratch);
}

ScoreResult ScoreComponents(const EgoNetwork& ego, std::uint32_t min_size,
                            bool want_contexts) {
  const std::uint32_t l = ego.num_members();
  DisjointSet dsu(l);
  for (const Edge& e : ego.edges) dsu.Union(e.u, e.v);

  std::vector<char> include(l, 0);
  std::uint32_t score = 0;
  // Count each qualifying root once.
  std::vector<char> root_counted(l, 0);
  for (std::uint32_t i = 0; i < l; ++i) {
    if (dsu.SetSize(i) >= min_size) {
      include[i] = 1;
      const std::uint32_t root = dsu.Find(i);
      if (!root_counted[root]) {
        root_counted[root] = 1;
        ++score;
      }
    }
  }

  ScoreResult result;
  result.score = score;
  if (want_contexts && score > 0) {
    std::vector<std::uint32_t> slot_of_root;
    result.contexts = MaterializeContexts(ego, dsu, include, slot_of_root);
    TSD_DCHECK(result.contexts.size() == score);
  }
  return result;
}

ScoreResult ScoreKCores(EgoNetwork& ego, std::uint32_t k,
                        bool want_contexts) {
  if (ego.offsets.empty()) ego.BuildCsr();
  const std::uint32_t l = ego.num_members();
  const std::vector<std::uint32_t> core =
      CoreNumbersCsr(l, ego.offsets, ego.adj);

  DisjointSet dsu(l);
  std::vector<char> include(l, 0);
  for (std::uint32_t i = 0; i < l; ++i) include[i] = core[i] >= k ? 1 : 0;
  for (const Edge& e : ego.edges) {
    if (include[e.u] && include[e.v]) dsu.Union(e.u, e.v);
  }

  std::vector<char> root_counted(l, 0);
  std::uint32_t score = 0;
  for (std::uint32_t i = 0; i < l; ++i) {
    if (!include[i]) continue;
    const std::uint32_t root = dsu.Find(i);
    if (!root_counted[root]) {
      root_counted[root] = 1;
      ++score;
    }
  }

  ScoreResult result;
  result.score = score;
  if (want_contexts && score > 0) {
    std::vector<std::uint32_t> slot_of_root;
    result.contexts = MaterializeContexts(ego, dsu, include, slot_of_root);
    TSD_DCHECK(result.contexts.size() == score);
  }
  return result;
}

}  // namespace tsd
