// Incrementally maintained TSD-index over a dynamic graph, with
// epoch-versioned forests so queries run concurrently with updates.
//
// The paper's Section 5.3 remarks that the TSD-index "can support efficient
// updates in dynamic graphs"; this class realizes that extension. The key
// locality property: inserting or deleting edge {u, v} changes only the
// ego-networks of
//     A(u, v) = {u, v} ∪ (N(u) ∩ N(v))
// — u's and v's ego-networks gain/lose the member on the other end (plus
// its incident ego edges), and each common neighbor w gains/loses the ego
// edge (u, v). The maintainer rebuilds exactly those |A| per-vertex forests
// (each an O(ρ_v · m_v) local job) and leaves the rest of the index
// untouched. Property tests verify equality with a from-scratch rebuild
// after every update.
//
// Construction and rebuilds run TsdIndex::Build's per-vertex step — the
// shared ego extractor (over the CSR input at construction, the DynamicGraph
// after) and internal::BuildVertexForest — and copy each forest straight
// into its exact-size slice; no flat TsdIndex is staged.
//
// Queries run the shared kernels and drivers of core/forest_slice.h — the
// same code TsdIndex runs — over ForestSlice views of the published slices,
// all read through the one view the query's epoch pin covers.
//
// Concurrency contract (the epoch design; common/epoch.h):
//  * Queries are const, lock-free, and safe *concurrently with updates*.
//    Each per-vertex forest is an immutable slice buffer published through
//    an atomic pointer; every public query entry point pins an epoch once
//    (one EpochGuard per query or batch), loads the current ForestView, and
//    reads only immutable data from there. Updates replace slices by atomic
//    swap and retire the old versions to the epoch manager, which frees them
//    only after every pinned reader has moved on — readers never block,
//    never lock, and never observe freed memory.
//  * Updates (InsertEdge / RemoveEdge / AddVertex) are serialized by the
//    caller — one updater thread, or a mutex around the update path (the
//    serving layer's LiveUpdateApplier does the latter). They no longer
//    exclude queries.
//  * A query that overlaps an update sees each affected vertex either
//    before or after its rebuild (per-slice atomicity, not whole-update
//    atomicity). Once an update returns and the updater quiesces, every
//    subsequent query is bit-identical to a from-scratch rebuild of the
//    current graph — the differential property the live-update harness
//    asserts after every epoch.
//  * graph(), Slice(), rebuild_count(), Freeze() and epoch_stats() are
//    updater-quiescent accessors: call them from the updater, or while no
//    update is in flight.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/epoch.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/forest_slice.h"
#include "core/query_scratch.h"
#include "core/query_session.h"
#include "core/scoring.h"
#include "core/tsd_index.h"
#include "core/types.h"
#include "graph/dynamic_graph.h"
#include "graph/ego_network.h"
#include "truss/ego_truss.h"

namespace tsd {

class DynamicTsdIndex : public DiversitySearcher {
 public:
  /// Builds the initial index from `initial` (equivalent to
  /// TsdIndex::Build on the same graph).
  explicit DynamicTsdIndex(const Graph& initial,
                           EgoTrussMethod method = EgoTrussMethod::kHash);

  /// No readers or updaters may be in flight at destruction.
  ~DynamicTsdIndex() override;

  DynamicTsdIndex(const DynamicTsdIndex&) = delete;
  DynamicTsdIndex& operator=(const DynamicTsdIndex&) = delete;

  /// Inserts {u, v} and repairs the affected ego-network forests.
  /// Returns false (and changes nothing) if the edge already exists, if
  /// u == v, or if either endpoint is out of range — out-of-range ids are a
  /// rejected update, not a crash, symmetric with RemoveEdge (ids arrive
  /// from untrusted "+u v" protocol lines).
  bool InsertEdge(VertexId u, VertexId v);

  /// Removes {u, v} and repairs the affected ego-network forests. Returns
  /// false (and changes nothing) if the edge is absent or either endpoint
  /// is out of range.
  bool RemoveEdge(VertexId u, VertexId v);

  /// Appends an isolated vertex.
  VertexId AddVertex();

  /// Structural diversity score of v at threshold k. The scratch overload
  /// is allocation-free in the steady state (mirrors TsdIndex); the
  /// convenience overload allocates a throwaway scratch per call.
  std::uint32_t Score(VertexId v, std::uint32_t k,
                      IndexQueryScratch& scratch) const {
    EpochGuard guard(epochs_);
    return ForestScore(SliceOf(CurrentView(), v), k, scratch);
  }
  std::uint32_t Score(VertexId v, std::uint32_t k) const {
    IndexQueryScratch scratch;
    return Score(v, k, scratch);
  }

  /// Score plus materialized social contexts.
  ScoreResult ScoreWithContexts(VertexId v, std::uint32_t k,
                                IndexQueryScratch& scratch) const {
    EpochGuard guard(epochs_);
    return ForestScoreWithContexts(SliceOf(CurrentView(), v), k, scratch);
  }
  ScoreResult ScoreWithContexts(VertexId v, std::uint32_t k) const {
    IndexQueryScratch scratch;
    return ScoreWithContexts(v, k, scratch);
  }

  /// The s̃core(v) upper bound (Section 5.2). Always ≥ Score(v, k).
  std::uint32_t ScoreUpperBound(VertexId v, std::uint32_t k) const {
    EpochGuard guard(epochs_);
    return ForestScoreUpperBound(SliceOf(CurrentView(), v), k);
  }

  /// Scores v at every threshold of `thresholds` (strictly descending) in
  /// one sweep over the vertex's forest slice.
  void ScoresForThresholds(VertexId v,
                           std::span<const std::uint32_t> thresholds,
                           IndexQueryScratch& scratch,
                           std::uint32_t* scores) const {
    EpochGuard guard(epochs_);
    ForestScoresForThresholds(SliceOf(CurrentView(), v), thresholds, scratch,
                              scores);
  }

  using DiversitySearcher::SearchBatch;
  using DiversitySearcher::TopR;

  /// The s̃core-ordered top-r scan of TsdIndex::TopR under one epoch pin.
  TopRResult TopR(std::uint32_t r, std::uint32_t k,
                  QuerySession& session) const override;

  /// The batch path of TsdIndex::SearchBatch under one epoch pin:
  /// bit-identical to per-query TopR.
  std::vector<TopRResult> SearchBatch(std::span<const BatchQuery> queries,
                                      QuerySession& session) const override;

  std::string name() const override { return "TSD-dynamic"; }

  /// Updater-quiescent accessor (see the header comment).
  const DynamicGraph& graph() const TSD_NO_THREAD_SAFETY_ANALYSIS {
    // Read without the updater capability by design: callers promise
    // quiescence, which the capability system cannot express.
    return graph_;
  }

  /// Updater-quiescent accessor: v's current forest, valid until the next
  /// update. Checks v < n.
  ForestSlice Slice(VertexId v) const { return SliceOf(CurrentView(), v); }

  /// Number of per-vertex forest rebuilds performed so far (updates only;
  /// excludes initial construction). One rebuild per affected vertex.
  std::uint64_t rebuild_count() const {
    return rebuild_count_.load(std::memory_order_relaxed);
  }

  /// Epoch-reclamation counters for the stats tables.
  EpochStats epoch_stats() const { return epochs_.stats(); }

  /// Snapshot as an immutable TsdIndex (bit-identical query results).
  TsdIndex Freeze() const;

 private:
  /// One vertex's maximum spanning forest, immutable once published, is
  /// one exact-size array [universe | size | u… | v… | weight…] whose three
  /// `size`-long runs are sorted by weight descending: one heap block per
  /// slice, header included, and no capacity slack. `universe` is the
  /// vertex count at build time: endpoint ids are all < universe, and query
  /// kernels size their dense scratch maps from it — NOT from the view's
  /// vertex count, because a reader holding an older view can legitimately
  /// observe a newer slice whose endpoints exceed the old view's range
  /// (slices and the view are published independently).
  static const std::uint32_t* NewSlice(
      VertexId universe, const EgoNetwork& ego,
      const internal::VertexForestScratch& forest);
  static void DeleteSlice(const std::uint32_t* slice) { delete[] slice; }
  static ForestSlice ViewOf(const std::uint32_t* slice) {
    const std::uint32_t size = slice[1];
    const std::uint32_t* u = slice + 2;
    return {{u, size}, {u + size, size}, {u + 2 * std::size_t{size}, size},
            slice[0]};
  }

  /// Atomic pointer array from vertex id to its current slice. Grown (as a
  /// whole) only by AddVertex; individual slots are swapped by updates.
  struct SliceTable {
    explicit SliceTable(std::size_t cap)
        : capacity(cap),
          slots(std::make_unique<std::atomic<const std::uint32_t*>[]>(cap)) {}
    std::size_t capacity;
    std::unique_ptr<std::atomic<const std::uint32_t*>[]> slots;
  };

  /// The queryable state, published through one atomic pointer: a vertex
  /// count and the table holding that many live slices.
  struct ForestView {
    VertexId num_vertices = 0;
    SliceTable* table = nullptr;
  };

  /// The current view. Callers must hold an epoch pin for as long as they
  /// use the result (or be the serialized updater).
  const ForestView& CurrentView() const {
    return *view_.load(std::memory_order_acquire);
  }

  /// v's slice in `view`, checked against the view's vertex count.
  static ForestSlice SliceOf(const ForestView& view, VertexId v) {
    TSD_CHECK(v < view.num_vertices);
    return SliceAt(view, v);
  }

  /// SliceOf without the range check, for the drivers and Freeze(), which
  /// only visit v < view.num_vertices.
  static ForestSlice SliceAt(const ForestView& view, VertexId v) {
    return ViewOf(view.table->slots[v].load(std::memory_order_acquire));
  }

  // Update internals (serialized-updater side).
  void RebuildVertex(VertexId v) TSD_REQUIRES(updater_role_);

  /// The serialized-updater capability (see the header contract): public
  /// update entry points claim it on behalf of their externally serialized
  /// caller, mirroring EpochManager::AssertWriter.
  ThreadRole updater_role_;

  DynamicGraph graph_ TSD_GUARDED_BY(updater_role_);

  /// Reclamation authority over retired slices/tables/views. Mutable: the
  /// const query paths pin and unpin reader epochs.
  mutable EpochManager epochs_;
  std::atomic<ForestView*> view_{nullptr};
  std::atomic<std::uint64_t> rebuild_count_{0};

  // Per-vertex forest scratch, shared with TsdIndex::Build's loop and
  // reused by construction and every RebuildVertex call.
  DynamicEgoNetworkExtractor extractor_ TSD_GUARDED_BY(updater_role_);
  EgoNetwork ego_ TSD_GUARDED_BY(updater_role_);
  internal::VertexForestScratch forest_ TSD_GUARDED_BY(updater_role_);
};

}  // namespace tsd
