#include "core/hybrid_search.h"

#include <algorithm>

#include "common/parallel.h"
#include "common/timer.h"
#include "core/batch_query.h"
#include "core/query_pipeline.h"
#include "core/scoring.h"

namespace tsd {

HybridSearcher::HybridSearcher(const Graph& graph, const GctIndex& index,
                               std::uint32_t num_threads)
    : graph_(graph) {
  TSD_CHECK(num_threads >= 1);
  const std::uint32_t max_k = std::max(2U, index.max_trussness());
  const std::uint32_t num_k = max_k - 1;
  rankings_.resize(num_k);

  // thresholds[i] = max_k - i (descending), feeding rankings_[max_k - i - 2].
  std::vector<std::uint32_t> thresholds(num_k);
  for (std::uint32_t i = 0; i < num_k; ++i) thresholds[i] = max_k - i;

  // One multi-k slice sweep per vertex; chunks cover contiguous ascending
  // vertex ranges and concatenate in order. The final per-k sort is under
  // the library total order (score desc, id asc), which is total on the
  // unique vertices, so the rankings are bit-identical at any thread count.
  using Ranking = std::vector<std::pair<VertexId, std::uint32_t>>;
  const std::uint32_t num_chunks = EffectiveChunks(
      ParallelConfig{num_threads, 0}, graph.num_vertices());
  std::vector<std::vector<Ranking>> chunks(num_chunks);
  ParallelForChunks(
      graph.num_vertices(), num_chunks, num_threads,
      [&](std::uint32_t c, std::uint64_t begin, std::uint64_t end) {
        std::vector<Ranking>& local = chunks[c];
        local.resize(num_k);
        std::vector<std::uint32_t> scores(num_k);
        for (std::uint64_t v = begin; v < end; ++v) {
          index.ScoresForThresholds(static_cast<VertexId>(v), thresholds,
                                    scores.data());
          for (std::uint32_t i = 0; i < num_k; ++i) {
            if (scores[i] > 0) {
              local[i].emplace_back(static_cast<VertexId>(v), scores[i]);
            }
          }
        }
      });
  for (std::vector<Ranking>& local : chunks) {
    if (local.empty()) continue;
    for (std::uint32_t i = 0; i < num_k; ++i) {
      Ranking& ranking = rankings_[thresholds[i] - 2];
      ranking.insert(ranking.end(), local[i].begin(), local[i].end());
    }
  }
  for (Ranking& ranking : rankings_) {
    std::sort(ranking.begin(), ranking.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
  }
}

std::vector<std::pair<VertexId, std::uint32_t>> HybridSearcher::Answers(
    std::uint32_t r, std::uint32_t k) const {
  // Answer vertices are read straight from the precomputed ranking; if the
  // positive-score ranking is shorter than r, pad with zero-score vertices
  // in id order (matching the library-wide total order).
  std::vector<std::pair<VertexId, std::uint32_t>> answers;
  if (k - 2 < rankings_.size()) {
    const auto& ranking = rankings_[k - 2];
    for (std::uint32_t i = 0; i < ranking.size() && i < r; ++i) {
      answers.push_back(ranking[i]);
    }
  }
  if (answers.size() < r) {
    // Zero-score fill: smallest ids not already present.
    std::vector<char> present(graph_.num_vertices(), 0);
    for (const auto& [v, s] : answers) present[v] = 1;
    for (VertexId v = 0; v < graph_.num_vertices() && answers.size() < r;
         ++v) {
      if (!present[v]) answers.emplace_back(v, 0);
    }
  }
  return answers;
}

TopRResult HybridSearcher::TopR(std::uint32_t r, std::uint32_t k,
                                QuerySession& session) const {
  TSD_CHECK(r >= 1);
  TSD_CHECK(k >= 2);
  WallTimer total;
  TopRResult result;

  const std::vector<std::pair<VertexId, std::uint32_t>> answers =
      Answers(r, k);

  // The dominant cost: online social-context computation (Algorithm 2) for
  // each answer vertex — the paper's motivation for GCT. Winners are
  // independent, so this phase parallelizes across them.
  QueryPipeline& pipeline =
      session.PipelineFor(graph_, EgoTrussMethod::kHash);
  {
    ScopedTimer t(&result.stats.context_seconds);
    pipeline.MaterializeEntries(
        answers, &result.entries, [k](QueryWorkspace& ws, VertexId v) {
          return ws.ScoreEgoAtFloor(v, k, /*want_contexts=*/true).contexts;
        });
    result.stats.vertices_scored = answers.size();
  }
  result.stats.threads_used = pipeline.num_threads();
  result.stats.total_seconds = total.Seconds();
  return result;
}

std::vector<TopRResult> HybridSearcher::SearchBatch(
    std::span<const BatchQuery> queries, QuerySession& session) const {
  WallTimer total;
  std::vector<TopRResult> results(queries.size());
  if (queries.empty()) return results;
  SearchStats stats;
  BatchQueryRunner runner(queries);
  QueryPipeline& pipeline =
      session.PipelineFor(graph_, EgoTrussMethod::kHash);

  // No scan at all: feed each query's precomputed answers to its collector
  // (they are already the unique top-r under the total order), then let the
  // grouped context phase decompose each distinct winner once.
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (const auto& [v, score] : Answers(queries[q].r, queries[q].k)) {
      runner.collector(q).Offer(v, score);
      ++stats.vertices_scored;
    }
  }

  {
    ScopedTimer t(&stats.context_seconds);
    runner.MaterializeGrouped(
        pipeline, &results,
        [](QueryWorkspace& ws, VertexId v) { ws.DecomposeEgo(v); },
        [](QueryWorkspace& ws, VertexId /*v*/, std::uint32_t k) {
          return ScoreFromEgoTrussness(ws.ego(), ws.trussness(), k,
                                       /*want_contexts=*/true,
                                       &ws.component_scratch())
              .contexts;
        });
  }

  stats.threads_used = pipeline.num_threads();
  stats.total_seconds = total.Seconds();
  FillBatchStats(&results, stats);
  return results;
}

std::size_t HybridSearcher::SizeBytes() const {
  std::size_t bytes = 0;
  for (const auto& ranking : rankings_) {
    bytes += ranking.size() * sizeof(ranking[0]);
  }
  return bytes;
}

}  // namespace tsd
