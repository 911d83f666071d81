#include "core/dynamic_tsd_index.h"

#include <algorithm>

#include "common/check.h"

namespace tsd {

const std::uint32_t* DynamicTsdIndex::NewSlice(
    VertexId universe, const EgoNetwork& ego,
    const internal::VertexForestScratch& forest) {
  const std::size_t size = forest.forest.size();
  auto* slice = new std::uint32_t[2 + 3 * size];
  slice[0] = universe;
  slice[1] = static_cast<std::uint32_t>(size);
  std::uint32_t* u = slice + 2;
  std::uint32_t* v = u + size;
  std::uint32_t* weight = v + size;
  for (std::size_t i = 0; i < size; ++i) {
    const EdgeId e = forest.forest[i];
    u[i] = ego.ToGlobal(ego.edges[e].u);
    v[i] = ego.ToGlobal(ego.edges[e].v);
    weight[i] = forest.trussness[e];
  }
  return slice;
}

DynamicTsdIndex::DynamicTsdIndex(const Graph& initial, EgoTrussMethod method)
    : graph_(initial), extractor_(graph_), forest_(method) {
  // Construction is single-threaded: this thread is trivially the
  // serialized updater, and no reader can hold a pin yet.
  updater_role_.Assert();
  const VertexId n = graph_.num_vertices();
  auto* table = new SliceTable(std::max<std::size_t>(n, 1));
  // TsdIndex::Build's vertex loop over the CSR input, each forest laid
  // straight into its exact-size slice. Construction is not a rebuild, so
  // rebuild_count() stays 0.
  EgoNetworkExtractor extractor(initial);
  for (VertexId v = 0; v < n; ++v) {
    extractor.ExtractInto(v, &ego_);
    internal::BuildVertexForest(ego_, forest_);
    table->slots[v].store(NewSlice(n, ego_, forest_),
                          std::memory_order_relaxed);
  }
  view_.store(new ForestView{n, table}, std::memory_order_release);
}

DynamicTsdIndex::~DynamicTsdIndex() {
  // Owner contract: no readers or updaters in flight. The epoch manager's
  // destructor frees whatever is still in limbo; only the live view and its
  // slices are freed here.
  ForestView* view = view_.load(std::memory_order_relaxed);
  for (VertexId v = 0; v < view->num_vertices; ++v) {
    DeleteSlice(view->table->slots[v].load(std::memory_order_relaxed));
  }
  delete view->table;
  delete view;
}

void DynamicTsdIndex::RebuildVertex(VertexId v) {
  rebuild_count_.fetch_add(1, std::memory_order_relaxed);
  extractor_.ExtractInto(v, &ego_);
  internal::BuildVertexForest(ego_, forest_);
  const std::uint32_t* slice = NewSlice(graph_.num_vertices(), ego_, forest_);

  // Publish the fresh slice; the displaced one stays readable until its
  // grace period passes. Serialized with all other writer-side calls by the
  // updater contract this function already requires.
  epochs_.AssertWriter();
  ForestView* view = view_.load(std::memory_order_relaxed);
  const std::uint32_t* old =
      view->table->slots[v].load(std::memory_order_relaxed);
  view->table->slots[v].store(slice, std::memory_order_release);
  if (old != nullptr) {
    epochs_.Retire(const_cast<std::uint32_t*>(old), [](void* p) {
      DeleteSlice(static_cast<const std::uint32_t*>(p));
    });
  }
}

bool DynamicTsdIndex::InsertEdge(VertexId u, VertexId v) {
  // Serialized-updater contract (class comment): the caller serializes all
  // update entry points, so this thread is the updater for this call.
  updater_role_.Assert();
  epochs_.AssertWriter();
  if (u == v || u >= graph_.num_vertices() || v >= graph_.num_vertices()) {
    return false;  // rejected, symmetric with RemoveEdge — never a crash
  }
  if (!graph_.InsertEdge(u, v)) return false;
  // Affected ego-networks: u, v, and every common neighbor (whose ego just
  // gained the edge (u, v)). Common neighbors are unchanged by the insert
  // itself, so computing them after the insert is equivalent.
  for (VertexId w : graph_.CommonNeighbors(u, v)) RebuildVertex(w);
  RebuildVertex(u);
  RebuildVertex(v);
  epochs_.TryAdvance();  // opportunistic; a pinned reader just defers frees
  return true;
}

bool DynamicTsdIndex::RemoveEdge(VertexId u, VertexId v) {
  // Serialized-updater contract (class comment).
  updater_role_.Assert();
  epochs_.AssertWriter();
  if (u >= graph_.num_vertices() || v >= graph_.num_vertices() ||
      !graph_.HasEdge(u, v)) {
    return false;
  }
  const std::vector<VertexId> affected = graph_.CommonNeighbors(u, v);
  graph_.RemoveEdge(u, v);
  for (VertexId w : affected) RebuildVertex(w);
  RebuildVertex(u);
  RebuildVertex(v);
  epochs_.TryAdvance();
  return true;
}

VertexId DynamicTsdIndex::AddVertex() {
  // Serialized-updater contract (class comment).
  updater_role_.Assert();
  epochs_.AssertWriter();
  const VertexId v = graph_.AddVertex();
  const VertexId n = graph_.num_vertices();
  extractor_.Rebind(graph_);  // grows the mark array over the new id
  ForestView* old_view = view_.load(std::memory_order_relaxed);

  const std::uint32_t* slice = new std::uint32_t[2]{n, 0};  // empty forest

  SliceTable* table = old_view->table;
  if (table->capacity < n) {
    // Grow by copying the slice pointers into a bigger table. Readers on
    // the old view keep using the old table (same slices), so only the
    // table shell and the view are retired — never the shared slices.
    auto* grown = new SliceTable(std::max<std::size_t>(n, table->capacity * 2));
    for (VertexId i = 0; i < old_view->num_vertices; ++i) {
      grown->slots[i].store(table->slots[i].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    }
    table = grown;
  }
  table->slots[n - 1].store(slice, std::memory_order_relaxed);
  view_.store(new ForestView{n, table}, std::memory_order_release);
  if (table != old_view->table) epochs_.Retire(old_view->table);
  epochs_.Retire(old_view);
  epochs_.TryAdvance();
  return v;
}

TopRResult DynamicTsdIndex::TopR(std::uint32_t r, std::uint32_t k,
                                 QuerySession& session) const {
  // One pin brackets the whole query; the pipeline workers it forks run
  // inside it (fork/join is the happens-before bracket), so every kernel
  // call reads through this one pinned view.
  EpochGuard guard(epochs_);
  const ForestView& view = CurrentView();
  return ForestTopR(
      view.num_vertices, [&view](VertexId v) { return SliceAt(view, v); }, r,
      k, session);
}

std::vector<TopRResult> DynamicTsdIndex::SearchBatch(
    std::span<const BatchQuery> queries, QuerySession& session) const {
  EpochGuard guard(epochs_);  // one pin brackets the whole batch (cf. TopR)
  const ForestView& view = CurrentView();
  return ForestSearchBatch(
      view.num_vertices, [&view](VertexId v) { return SliceAt(view, v); },
      queries, session);
}

TsdIndex DynamicTsdIndex::Freeze() const {
  EpochGuard guard(epochs_);
  const ForestView& view = CurrentView();
  TsdIndex index;
  const VertexId n = view.num_vertices;
  std::vector<std::uint64_t> offsets(std::size_t{n} + 1, 0);
  std::vector<VertexId> edge_u;
  std::vector<VertexId> edge_v;
  std::vector<std::uint32_t> weight;
  for (VertexId v = 0; v < n; ++v) {
    const ForestSlice slice = SliceAt(view, v);
    edge_u.insert(edge_u.end(), slice.u.begin(), slice.u.end());
    edge_v.insert(edge_v.end(), slice.v.begin(), slice.v.end());
    weight.insert(weight.end(), slice.weight.begin(), slice.weight.end());
    offsets[v + 1] = edge_u.size();
  }
  if (!weight.empty()) index.max_weight_ = std::ranges::max(weight);
  index.offsets_ = std::move(offsets);
  index.edge_u_ = std::move(edge_u);
  index.edge_v_ = std::move(edge_v);
  index.weight_ = std::move(weight);
  return index;
}

}  // namespace tsd
