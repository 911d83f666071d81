#include "core/tsd_index.h"

#include <algorithm>

#include "common/check.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "common/timer.h"

namespace tsd {
namespace {

// Snapshot section tags for the TSD forest ("tsdx.*" group).
constexpr std::uint64_t kTsdMetaTag = SnapshotTag("tsdx.met");
constexpr std::uint64_t kTsdOffsetsTag = SnapshotTag("tsdx.off");
constexpr std::uint64_t kTsdEdgeUTag = SnapshotTag("tsdx.edu");
constexpr std::uint64_t kTsdEdgeVTag = SnapshotTag("tsdx.edv");
constexpr std::uint64_t kTsdWeightTag = SnapshotTag("tsdx.wgt");

// Schema version for the "tsdx.*" section group (common/snapshot.h policy).
constexpr std::uint64_t kTsdSchemaVersion = 1;

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = "TSD snapshot: " + message;
  return false;
}

/// Per-chunk build output: forest edge arrays plus per-vertex counts, so
/// chunks concatenate in order into the final flat index.
struct TsdChunk {
  std::vector<VertexId> edge_u;
  std::vector<VertexId> edge_v;
  std::vector<std::uint32_t> weight;
  std::vector<std::uint32_t> per_vertex_count;
  double extraction_seconds = 0;
  double decomposition_seconds = 0;
  double assembly_seconds = 0;
};

}  // namespace

namespace internal {

void BuildVertexForest(EgoNetwork& ego, VertexForestScratch& scratch) {
  {
    ScopedTimer t(&scratch.decomposition_seconds);
    scratch.decomposer.ComputeInto(ego, &scratch.trussness);
  }
  ScopedTimer t(&scratch.assembly_seconds);
  const std::vector<std::uint32_t>& trussness = scratch.trussness;
  scratch.forest.clear();
  if (ego.num_edges() == 0) return;

  // Counting sort of the edge ids by weight, descending: cursor[w] starts at
  // the number of edges heavier than w.
  std::uint32_t max_w = 0;
  for (std::uint32_t w : trussness) max_w = std::max(max_w, w);
  std::vector<std::uint32_t>& cursor = scratch.cursor;
  cursor.assign(std::size_t{max_w} + 1, 0);
  for (std::uint32_t w : trussness) ++cursor[w];
  std::uint32_t heavier = 0;
  for (std::uint32_t w = max_w + 1; w-- > 0;) {
    const std::uint32_t count = cursor[w];
    cursor[w] = heavier;
    heavier += count;
  }
  scratch.by_weight.resize(ego.num_edges());
  for (EdgeId e = 0; e < ego.num_edges(); ++e) {
    scratch.by_weight[cursor[trussness[e]]++] = e;
  }

  // Kruskal; a forest that spans every member has no edge left to take.
  scratch.dsu.Reset(ego.num_members());
  for (const EdgeId e : scratch.by_weight) {
    if (scratch.dsu.Union(ego.edges[e].u, ego.edges[e].v)) {
      scratch.forest.push_back(e);
      if (scratch.forest.size() + 1 == ego.num_members()) break;
    }
  }
}

}  // namespace internal

TsdIndex TsdIndex::Build(const Graph& graph, const Options& options) {
  TSD_CHECK(options.num_threads >= 1);
  WallTimer total;
  TsdIndex index;
  const VertexId n = graph.num_vertices();
  std::vector<std::uint64_t> offsets(std::size_t{n} + 1, 0);
  std::vector<VertexId> edge_u;
  std::vector<VertexId> edge_v;
  std::vector<std::uint32_t> weight;

  const std::uint32_t num_chunks =
      EffectiveChunks(ParallelConfig{options.num_threads, 0}, n);
  std::vector<TsdChunk> chunks(num_chunks);

  ParallelForChunks(
      n, num_chunks, options.num_threads,
      [&](std::uint32_t c, std::uint64_t begin, std::uint64_t end) {
        TsdChunk& chunk = chunks[c];
        chunk.per_vertex_count.reserve(end - begin);
        EgoNetworkExtractor extractor(graph);
        internal::VertexForestScratch forest(options.method);
        EgoNetwork ego;
        for (std::uint64_t v = begin; v < end; ++v) {
          {
            ScopedTimer t(&chunk.extraction_seconds);
            extractor.ExtractInto(static_cast<VertexId>(v), &ego);
          }
          internal::BuildVertexForest(ego, forest);
          for (const EdgeId e : forest.forest) {
            chunk.edge_u.push_back(ego.ToGlobal(ego.edges[e].u));
            chunk.edge_v.push_back(ego.ToGlobal(ego.edges[e].v));
            chunk.weight.push_back(forest.trussness[e]);
          }
          chunk.per_vertex_count.push_back(
              static_cast<std::uint32_t>(forest.forest.size()));
        }
        chunk.decomposition_seconds = forest.decomposition_seconds;
        chunk.assembly_seconds = forest.assembly_seconds;
      });

  // Merge chunks in order (chunk c covers a contiguous ascending vertex
  // range, so concatenation preserves the per-vertex layout).
  VertexId v = 0;
  for (TsdChunk& chunk : chunks) {
    for (std::uint32_t count : chunk.per_vertex_count) {
      offsets[v + 1] = offsets[v] + count;
      ++v;
    }
    edge_u.insert(edge_u.end(), chunk.edge_u.begin(), chunk.edge_u.end());
    edge_v.insert(edge_v.end(), chunk.edge_v.begin(), chunk.edge_v.end());
    weight.insert(weight.end(), chunk.weight.begin(), chunk.weight.end());
    index.build_stats_.extraction_seconds += chunk.extraction_seconds;
    index.build_stats_.decomposition_seconds += chunk.decomposition_seconds;
    index.build_stats_.assembly_seconds += chunk.assembly_seconds;
  }
  TSD_CHECK(v == n);
  if (!weight.empty()) index.max_weight_ = std::ranges::max(weight);
  index.offsets_ = std::move(offsets);
  index.edge_u_ = std::move(edge_u);
  index.edge_v_ = std::move(edge_v);
  index.weight_ = std::move(weight);
  index.build_stats_.total_seconds = total.Seconds();
  return index;
}

TopRResult TsdIndex::TopR(std::uint32_t r, std::uint32_t k,
                          QuerySession& session) const {
  return ForestTopR(
      num_vertices(), [this](VertexId v) { return SliceAt(v); }, r, k, session);
}

std::vector<TopRResult> TsdIndex::SearchBatch(
    std::span<const BatchQuery> queries, QuerySession& session) const {
  return ForestSearchBatch(
      num_vertices(), [this](VertexId v) { return SliceAt(v); }, queries,
      session);
}

std::size_t TsdIndex::SizeBytes() const {
  return offsets_.size() * sizeof(std::uint64_t) +
         edge_u_.size() * sizeof(VertexId) +
         edge_v_.size() * sizeof(VertexId) +
         weight_.size() * sizeof(std::uint32_t);
}

void TsdIndex::Save(const std::string& path) const {
  SnapshotWriter writer(path);
  AppendToSnapshot(writer);
  writer.Finish();
}

TsdIndex TsdIndex::Load(const std::string& path) {
  SnapshotReader reader;
  std::string error;
  TSD_CHECK_MSG(SnapshotReader::Open(path, &reader, &error), error);
  TsdIndex index;
  TSD_CHECK_MSG(LoadFromSnapshot(reader, &index, &error), error);
  return index;
}

void TsdIndex::AppendToSnapshot(SnapshotWriter& writer) const {
  const std::uint64_t meta[] = {kTsdSchemaVersion, num_vertices(),
                                max_weight_};
  writer.AddScalars(kTsdMetaTag, meta);
  writer.AddArray(kTsdOffsetsTag, offsets_.span());
  writer.AddArray(kTsdEdgeUTag, edge_u_.span());
  writer.AddArray(kTsdEdgeVTag, edge_v_.span());
  writer.AddArray(kTsdWeightTag, weight_.span());
}

bool TsdIndex::LoadFromSnapshot(const SnapshotReader& reader, TsdIndex* out,
                                std::string* error) {
  *out = TsdIndex();

  std::uint64_t meta[3] = {};
  if (!reader.ReadScalars(kTsdMetaTag, meta, error)) return false;
  if (meta[0] != kTsdSchemaVersion) {
    return Fail(error, "unsupported TSD schema version " +
                           std::to_string(meta[0]) + " (this build reads " +
                           std::to_string(kTsdSchemaVersion) + ")");
  }
  if (meta[1] > kInvalidVertex) return Fail(error, "vertex count overflow");
  const auto n = static_cast<VertexId>(meta[1]);
  const auto max_weight = static_cast<std::uint32_t>(meta[2]);

  std::span<const std::uint64_t> offsets;
  std::span<const VertexId> edge_u;
  std::span<const VertexId> edge_v;
  std::span<const std::uint32_t> weight;
  if (!reader.Read(kTsdOffsetsTag, &offsets, error) ||
      !reader.Read(kTsdEdgeUTag, &edge_u, error) ||
      !reader.Read(kTsdEdgeVTag, &edge_v, error) ||
      !reader.Read(kTsdWeightTag, &weight, error)) {
    return false;
  }

  if (offsets.size() != std::size_t{n} + 1) {
    return Fail(error, "offsets size mismatch");
  }
  const std::size_t total = weight.size();
  if (edge_u.size() != total || edge_v.size() != total) {
    return Fail(error, "forest arrays size mismatch");
  }
  if (offsets[0] != 0 || offsets[n] != total) {
    return Fail(error, "offsets do not span the forest arrays");
  }
  // Monotone offsets from 0 to `total` bound every slice, so the per-slice
  // loop below stays inside the arrays.
  for (VertexId v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      return Fail(error, "offsets not monotone");
    }
  }
  std::uint32_t seen_max_weight = 0;
  for (VertexId v = 0; v < n; ++v) {
    for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      if (edge_u[i] >= n || edge_v[i] >= n) {
        return Fail(error, "forest endpoint out of range");
      }
      // Per-slice weight order is what Score's early exit and
      // ScoreUpperBound's partition_point rely on.
      if (i > offsets[v] && weight[i - 1] < weight[i]) {
        return Fail(error, "forest slice not sorted by weight descending");
      }
      seen_max_weight = std::max(seen_max_weight, weight[i]);
    }
  }
  if (seen_max_weight != max_weight) {
    return Fail(error, "max weight mismatch");
  }

  out->offsets_.BindView(offsets);
  out->edge_u_.BindView(edge_u);
  out->edge_v_.BindView(edge_v);
  out->weight_.BindView(weight);
  out->max_weight_ = max_weight;
  out->mapping_ = reader.mapping();
  return true;
}

}  // namespace tsd
