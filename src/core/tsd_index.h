// TSD-index — the paper's Section 5 contribution.
//
// For every vertex v, the index stores the *maximum spanning forest* of the
// trussness-weighted ego-network WG_v (edge weight = trussness of the edge
// inside G_N(v)). By the max-spanning-forest cut property, two members of
// G_N(v) lie in the same maximal connected k-truss iff the forest connects
// them through edges of weight ≥ k, so the forest preserves the full
// structural diversity information of every ego-network in O(Σ_v n_v) ⊆
// O(m) total space (Observations 2 and 3).
//
// The forests live in flat structure-of-arrays storage (offsets, u, v,
// weight; the "tsdx.*" snapshot sections bind these arrays directly), and
// Slice(v) hands out v's forest as a ForestSlice view. Every query runs the
// shared kernels of core/forest_slice.h, the same code the dynamic index
// runs over its maintained slices:
//   score(v)      — count components of the weight-≥k forest prefix.
//   s̃core(v)     — ⌊(#forest edges of weight ≥ k) / (k-1)⌋, the TSD upper
//                   bound used for top-r pruning (Section 5.2).
//   TopR(r, k)    — bound-ordered scan with early termination.
//   SearchBatch   — one multi-k sweep over every vertex's slice.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/check.h"
#include "common/disjoint_set.h"
#include "common/mmap_file.h"
#include "common/snapshot.h"
#include "core/forest_slice.h"
#include "core/query_scratch.h"
#include "core/query_session.h"
#include "core/scoring.h"
#include "core/types.h"
#include "graph/ego_network.h"
#include "truss/ego_truss.h"

namespace tsd {

/// Timing breakdown of index construction (feeds Tables 3 and 4).
struct IndexBuildStats {
  double extraction_seconds = 0;     // ego-network extraction
  double decomposition_seconds = 0;  // ego-network truss decomposition
  double assembly_seconds = 0;       // forest / supernode assembly
  double total_seconds = 0;
};

namespace internal {

/// Reusable per-worker scratch of BuildVertexForest, and its output.
struct VertexForestScratch {
  explicit VertexForestScratch(EgoTrussMethod method) : decomposer(method) {}

  EgoTrussDecomposer decomposer;
  std::vector<std::uint32_t> trussness;  // per ego edge: its weight
  std::vector<std::uint32_t> cursor;     // counting-sort cursor per weight
  std::vector<EdgeId> by_weight;         // ego edge ids, weight descending
  DisjointSet dsu;
  /// The forest: ego edge ids in non-increasing trussness order.
  std::vector<EdgeId> forest;
  /// Time spent in the decomposition and in the forest, summed over calls.
  double decomposition_seconds = 0;
  double assembly_seconds = 0;
};

/// Algorithm 5's per-vertex step, shared by TsdIndex::Build and the dynamic
/// index: decomposes `ego` and leaves its maximum spanning forest under the
/// trussness weights in `scratch.forest`. Kruskal with a counting sort on
/// the (small integer) weights, so one ego-network costs O(m_v + max_w)
/// beyond the decomposition, and a warm call allocates nothing.
void BuildVertexForest(EgoNetwork& ego, VertexForestScratch& scratch);

}  // namespace internal

class TsdIndex : public DiversitySearcher {
 public:
  struct Options {
    /// Kernel for the per-ego truss decompositions during construction.
    /// The paper's TSD uses per-vertex extraction + hash decomposition;
    /// the GCT improvements live in GctIndex.
    EgoTrussMethod method = EgoTrussMethod::kHash;
    /// Worker threads for construction. Per-vertex forests are independent,
    /// so the build parallelizes embarrassingly; results are bit-identical
    /// to the sequential build. With >1 threads the per-phase timing
    /// breakdown in build_stats() is summed across workers (CPU time, not
    /// wall time).
    std::uint32_t num_threads = 1;
  };

  /// Builds the TSD-index of `graph` (Algorithm 5). O(ρ(m+T)) time.
  static TsdIndex Build(const Graph& graph, const Options& options);
  static TsdIndex Build(const Graph& graph) { return Build(graph, Options()); }

  /// Structural diversity score of v at threshold k, via Algorithm 6.
  /// The scratch overload is allocation-free in the steady state; the
  /// convenience overload allocates a throwaway scratch per call.
  std::uint32_t Score(VertexId v, std::uint32_t k,
                      IndexQueryScratch& scratch) const {
    return ForestScore(Slice(v), k, scratch);
  }
  std::uint32_t Score(VertexId v, std::uint32_t k) const {
    IndexQueryScratch scratch;
    return Score(v, k, scratch);
  }

  /// Score plus materialized social contexts.
  ScoreResult ScoreWithContexts(VertexId v, std::uint32_t k,
                                IndexQueryScratch& scratch) const {
    return ForestScoreWithContexts(Slice(v), k, scratch);
  }
  ScoreResult ScoreWithContexts(VertexId v, std::uint32_t k) const {
    IndexQueryScratch scratch;
    return ScoreWithContexts(v, k, scratch);
  }

  /// Scores v at every threshold of `thresholds` (strictly descending) in
  /// one sweep over the forest slice — the batch-query kernel.
  void ScoresForThresholds(VertexId v,
                           std::span<const std::uint32_t> thresholds,
                           IndexQueryScratch& scratch,
                           std::uint32_t* scores) const {
    ForestScoresForThresholds(Slice(v), thresholds, scratch, scores);
  }

  /// The s̃core(v) upper bound (Section 5.2). Always ≥ Score(v, k).
  std::uint32_t ScoreUpperBound(VertexId v, std::uint32_t k) const {
    return ForestScoreUpperBound(Slice(v), k);
  }

  using DiversitySearcher::SearchBatch;
  using DiversitySearcher::TopR;

  /// Index-based top-r search with s̃core pruning. The index is immutable,
  /// so concurrent sessions may query one shared instance.
  TopRResult TopR(std::uint32_t r, std::uint32_t k,
                  QuerySession& session) const override;

  /// Amortized batch path: one forest-slice sweep per vertex scores every
  /// requested threshold (bit-identical to per-query TopR).
  std::vector<TopRResult> SearchBatch(std::span<const BatchQuery> queries,
                                      QuerySession& session) const override;

  std::string name() const override { return "TSD"; }

  /// v's forest as a view into the flat arrays.
  ForestSlice Slice(VertexId v) const {
    TSD_CHECK(v < num_vertices());
    return SliceAt(v);
  }

  /// Number of forest edges stored for v.
  std::uint32_t NumForestEdges(VertexId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  VertexId num_vertices() const {
    return static_cast<VertexId>(offsets_.size() - 1);
  }

  /// Serialized/in-memory index size in bytes (Table 3).
  std::size_t SizeBytes() const;

  IndexBuildStats build_stats() const { return build_stats_; }

  /// Maximum forest edge weight anywhere (== max ego-network trussness).
  std::uint32_t max_weight() const { return max_weight_; }

  /// Saves a single-object snapshot (common/snapshot.h container) holding
  /// just this index. Load() throws tsd::CheckError on any malformed file —
  /// legacy semantics kept for callers that treat the path as trusted.
  void Save(const std::string& path) const;
  static TsdIndex Load(const std::string& path);

  /// Writes the forest arrays into an open snapshot ("tsdx.*" tags), for
  /// combined files that also carry the graph and/or other indexes.
  void AppendToSnapshot(SnapshotWriter& writer) const;

  /// Binds an index to the "tsdx.*" sections of a mapped snapshot —
  /// zero-copy, validated; false + `*error` on any inconsistency.
  [[nodiscard]] static bool LoadFromSnapshot(const SnapshotReader& reader,
                                             TsdIndex* out,
                                             std::string* error);

  /// True when the forest arrays are views into a mapped snapshot.
  bool is_mapped() const { return mapping_ != nullptr; }

 private:
  friend class DynamicTsdIndex;

  /// Slice without the range check, for the drivers, which only visit
  /// v < num_vertices(). Small enough to inline into their loops.
  ForestSlice SliceAt(VertexId v) const {
    const std::uint64_t begin = offsets_[v];
    const std::size_t count = offsets_[v + 1] - begin;
    return {edge_u_.span().subspan(begin, count),
            edge_v_.span().subspan(begin, count),
            weight_.span().subspan(begin, count), num_vertices()};
  }

  // Per-vertex forest edges, flattened; each vertex's slice is sorted by
  // weight descending. Endpoints are global vertex ids.
  FlatArray<std::uint64_t> offsets_;  // size n+1
  FlatArray<VertexId> edge_u_;
  FlatArray<VertexId> edge_v_;
  FlatArray<std::uint32_t> weight_;
  std::uint32_t max_weight_ = 0;
  IndexBuildStats build_stats_;
  // Keeps the snapshot mapping alive while the arrays view into it.
  std::shared_ptr<const MappedFile> mapping_;
};

}  // namespace tsd
