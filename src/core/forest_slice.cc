#include "core/forest_slice.h"

#include <algorithm>

#include "common/check.h"
#include "common/disjoint_set.h"

namespace tsd {

std::uint32_t ForestScore(const ForestSlice& slice, std::uint32_t k,
                          IndexQueryScratch& scratch) {
  TSD_CHECK(k >= 2);
  scratch.ids.Begin(slice.universe);
  std::uint32_t edges = 0;
  for (std::size_t i = 0; i < slice.weight.size() && slice.weight[i] >= k;
       ++i) {
    ++edges;
    scratch.ids.Insert(slice.u[i]);
    scratch.ids.Insert(slice.v[i]);
  }
  return scratch.ids.size() - edges;
}

ScoreResult ForestScoreWithContexts(const ForestSlice& slice,
                                    std::uint32_t k,
                                    IndexQueryScratch& scratch) {
  TSD_CHECK(k >= 2);
  // Map touched global endpoints to dense local ids.
  scratch.ids.Begin(slice.universe);
  std::size_t qualified = 0;
  for (; qualified < slice.weight.size() && slice.weight[qualified] >= k;
       ++qualified) {
    scratch.ids.Insert(slice.u[qualified]);
    scratch.ids.Insert(slice.v[qualified]);
  }
  const std::vector<VertexId>& global = scratch.ids.keys();

  scratch.dsu.Reset(global.size());
  for (std::size_t i = 0; i < qualified; ++i) {
    scratch.dsu.Union(scratch.ids.Insert(slice.u[i]),
                      scratch.ids.Insert(slice.v[i]));
  }

  // Local ids follow first touch, not global order, so members and contexts
  // are sorted afterwards.
  ScoreResult result;
  GroupBySet(
      scratch.dsu, scratch.slots, &result.contexts,
      [](std::uint32_t) { return true; },
      [&](SocialContext& context, std::uint32_t i) {
        context.push_back(global[i]);
      });
  result.score = static_cast<std::uint32_t>(result.contexts.size());
  for (SocialContext& context : result.contexts) {
    std::sort(context.begin(), context.end());
  }
  std::sort(result.contexts.begin(), result.contexts.end(),
            [](const SocialContext& a, const SocialContext& b) {
              return a.front() < b.front();
            });
  return result;
}

void ForestScoresForThresholds(const ForestSlice& slice,
                               std::span<const std::uint32_t> thresholds,
                               IndexQueryScratch& scratch,
                               std::uint32_t* scores) {
  scratch.ids.Begin(slice.universe);
  std::size_t i = 0;
  std::uint32_t edges = 0;
  for (std::size_t t = 0; t < thresholds.size(); ++t) {
    const std::uint32_t k = thresholds[t];
    TSD_DCHECK(t == 0 || thresholds[t - 1] > k);
    while (i < slice.weight.size() && slice.weight[i] >= k) {
      ++edges;
      scratch.ids.Insert(slice.u[i]);
      scratch.ids.Insert(slice.v[i]);
      ++i;
    }
    scores[t] = scratch.ids.size() - edges;
  }
}

}  // namespace tsd
