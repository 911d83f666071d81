#include "core/query_pipeline.h"

namespace tsd {

QueryWorkspace::QueryWorkspace(const Graph* graph, EgoTrussMethod method)
    : decomposer_(method) {
  if (graph != nullptr) extractor_.emplace(*graph);
}

void QueryWorkspace::Rebind(const Graph& graph) {
  TSD_CHECK_MSG(extractor_.has_value(),
                "index-only workspace cannot be rebound to a graph");
  extractor_->Rebind(graph);
}

EgoNetwork& QueryWorkspace::ExtractEgo(VertexId v) {
  TSD_DCHECK(extractor_.has_value());
  extractor_->ExtractInto(v, &ego_);
  return ego_;
}

EgoNetwork& QueryWorkspace::DecomposeEgo(VertexId v) {
  ExtractEgo(v);
  decomposer_.ComputeInto(ego_, &trussness_);
  return ego_;
}

ScoreResult QueryWorkspace::ScoreEgoAtFloor(VertexId v, std::uint32_t k,
                                            bool want_contexts) {
  ExtractEgo(v);
  const std::span<const Edge> truss_edges = floor_peeler_.Peel(ego_, k);
  ego_edges_supported_ += floor_peeler_.edges_supported();
  return ScoreFromEgoTrussEdges(ego_, truss_edges, want_contexts,
                                component_scratch_);
}

QueryPipeline::QueryPipeline(const Graph& graph, EgoTrussMethod method,
                             const QueryOptions& options)
    : options_(options) {
  TSD_CHECK(options_.num_threads >= 1);
  workspaces_.reserve(options_.num_threads);
  for (std::uint32_t t = 0; t < options_.num_threads; ++t) {
    workspaces_.push_back(std::make_unique<QueryWorkspace>(&graph, method));
  }
}

QueryPipeline::QueryPipeline(const QueryOptions& options) : options_(options) {
  TSD_CHECK(options_.num_threads >= 1);
  workspaces_.reserve(options_.num_threads);
  for (std::uint32_t t = 0; t < options_.num_threads; ++t) {
    workspaces_.push_back(
        std::make_unique<QueryWorkspace>(nullptr, EgoTrussMethod::kAuto));
  }
}

void QueryPipeline::Rebind(const Graph& graph) {
  for (auto& workspace : workspaces_) workspace->Rebind(graph);
}

std::uint64_t QueryPipeline::TakeEgoEdgesSupported() {
  std::uint64_t total = 0;
  for (auto& workspace : workspaces_) {
    total += workspace->TakeEgoEdgesSupported();
  }
  return total;
}

std::uint32_t QueryPipeline::ResolveChunks(std::uint64_t total) const {
  // One shared auto-chunk rule (common/parallel.h) keeps pipeline chunking
  // in lock-step with the index builders and the preprocessing kernels.
  return EffectiveChunks(ToParallelConfig(options_), total);
}

void QueryPipeline::MergeInto(std::vector<TopRCollector>& locals,
                              TopRCollector* collector) const {
  // Worker order; the top-r set under the total order is unique, so any
  // merge order yields the same collector state. The locals die after the
  // merge, so take their entries instead of copying.
  for (TopRCollector& local : locals) {
    for (const auto& [vertex, score] : local.TakeRanked()) {
      collector->Offer(vertex, score);
    }
  }
}

QueryPipeline& PipelineCache::For(const Graph& graph, EgoTrussMethod method,
                                  const QueryOptions& options) {
  if (pipeline_ == nullptr || cached_options_ != options ||
      cached_graph_ != &graph || cached_method_ != method) {
    pipeline_ = std::make_unique<QueryPipeline>(graph, method, options);
    cached_options_ = options;
    cached_graph_ = &graph;
    cached_method_ = method;
  }
  return *pipeline_;
}

QueryOptions QueryOptionsFromFlags(const Flags& flags) {
  QueryOptions options;
  options.num_threads = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, flags.GetInt("threads", 1)));
  options.num_chunks = static_cast<std::uint32_t>(
      std::max<std::int64_t>(0, flags.GetInt("chunks", 0)));
  const std::string plan = flags.GetString("plan", "auto");
  const std::optional<TrussPlanAlgorithm> parsed = ParseTrussPlanAlgorithm(plan);
  TSD_CHECK_MSG(parsed.has_value(),
                "--plan must be one of auto, bsp, core-truss");
  options.truss_plan = *parsed;
  options.ramp_base_per_thread = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, flags.GetInt("ramp-base", 4)));
  options.ramp_growth = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, flags.GetInt("ramp-growth", 2)));
  return options;
}

}  // namespace tsd
