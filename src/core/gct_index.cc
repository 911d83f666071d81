#include "core/gct_index.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "common/check.h"
#include "common/disjoint_set.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "common/timer.h"
#include "core/batch_query.h"
#include "core/query_pipeline.h"
#include "core/top_r_collector.h"

namespace tsd {
namespace {

// Snapshot section tags for the GCT supernode/superedge arrays ("gctx.*"
// group).
constexpr std::uint64_t kGctMetaTag = SnapshotTag("gctx.met");
constexpr std::uint64_t kGctSnOffsetsTag = SnapshotTag("gctx.sno");
constexpr std::uint64_t kGctSnTauTag = SnapshotTag("gctx.tau");
constexpr std::uint64_t kGctMemberOffsetsTag = SnapshotTag("gctx.mof");
constexpr std::uint64_t kGctMembersTag = SnapshotTag("gctx.mem");
constexpr std::uint64_t kGctSeOffsetsTag = SnapshotTag("gctx.seo");
constexpr std::uint64_t kGctSeATag = SnapshotTag("gctx.sea");
constexpr std::uint64_t kGctSeBTag = SnapshotTag("gctx.seb");
constexpr std::uint64_t kGctSeWTag = SnapshotTag("gctx.sew");

// Schema version for the "gctx.*" section group (common/snapshot.h policy).
constexpr std::uint64_t kGctSchemaVersion = 1;

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = "GCT snapshot: " + message;
  return false;
}

/// Scratch for one ego-network's Algorithm 8 run, reused across vertices.
struct SupernodeBuilder {
  DisjointSet merge;  // supernode membership over local vertices
  DisjointSet conn;   // forest connectivity over local vertices
  std::vector<std::uint32_t> vertex_tau;  // valid at merge roots
  std::vector<std::uint32_t> sorted_edges;
  std::vector<std::uint32_t> bucket;

  struct RawSuperedge {
    std::uint32_t u;  // local vertex
    std::uint32_t w;  // local vertex
    std::uint32_t weight;
  };
  std::vector<RawSuperedge> raw_superedges;
};

}  // namespace

namespace {

/// Per-chunk build output for the parallel GCT build; chunks cover
/// contiguous ascending vertex ranges and concatenate in order.
struct GctChunk {
  std::vector<std::uint32_t> sn_tau;
  std::vector<std::uint32_t> sn_member_count;  // parallel to sn_tau
  std::vector<VertexId> members;
  std::vector<std::uint32_t> se_a;
  std::vector<std::uint32_t> se_b;
  std::vector<std::uint32_t> se_w;
  std::vector<std::uint32_t> per_vertex_sn_count;
  std::vector<std::uint32_t> per_vertex_se_count;
  std::uint32_t max_trussness = 0;
  double extraction_seconds = 0;
  double decomposition_seconds = 0;
  double assembly_seconds = 0;
};

/// Algorithm 8 on one decomposed ego-network; appends the resulting
/// supernodes/superedges to `chunk`.
void AssembleSupernodes(const EgoNetwork& ego,
                        const std::vector<std::uint32_t>& trussness,
                        SupernodeBuilder& scratch, GctChunk& chunk) {
  const std::uint32_t l = ego.num_members();
  const std::uint32_t m = ego.num_edges();

  scratch.merge.Reset(l);
  scratch.conn.Reset(l);
  scratch.vertex_tau.assign(l, 0);
  for (EdgeId e = 0; e < m; ++e) {
    const auto [a, b] = ego.edges[e];
    scratch.vertex_tau[a] = std::max(scratch.vertex_tau[a], trussness[e]);
    scratch.vertex_tau[b] = std::max(scratch.vertex_tau[b], trussness[e]);
  }

  // Edge ids in descending trussness order (counting sort).
  std::uint32_t max_w = 0;
  for (std::uint32_t w : trussness) max_w = std::max(max_w, w);
  scratch.bucket.assign(max_w + 2, 0);
  for (std::uint32_t w : trussness) ++scratch.bucket[w];
  {
    std::uint32_t cursor = 0;
    for (std::uint32_t w = max_w + 1; w-- > 0;) {
      const std::uint32_t count = scratch.bucket[w];
      scratch.bucket[w] = cursor;
      cursor += count;
    }
  }
  scratch.sorted_edges.resize(m);
  for (EdgeId e = 0; e < m; ++e) {
    scratch.sorted_edges[scratch.bucket[trussness[e]]++] = e;
  }

  // Process edges from the highest trussness down (Algorithm 8 lines 5-15).
  scratch.raw_superedges.clear();
  for (std::uint32_t i = 0; i < m; ++i) {
    const EdgeId e = scratch.sorted_edges[i];
    const auto [u, w] = ego.edges[e];
    const std::uint32_t t_e = trussness[e];
    if (scratch.conn.Connected(u, w)) continue;
    const std::uint32_t mu = scratch.merge.Find(u);
    const std::uint32_t mw = scratch.merge.Find(w);
    if (scratch.vertex_tau[mu] == t_e && scratch.vertex_tau[mw] == t_e) {
      // Same trussness level on both sides: merge the supernodes.
      scratch.merge.Union(mu, mw);
      scratch.vertex_tau[scratch.merge.Find(mu)] = t_e;
    } else {
      scratch.raw_superedges.push_back({u, w, t_e});
    }
    scratch.conn.Union(u, w);
  }

  // Collect final supernodes: group non-isolated locals by merge root.
  std::unordered_map<std::uint32_t, std::uint32_t> root_to_sn;
  std::vector<std::uint32_t> sn_tau;
  std::vector<std::vector<VertexId>> sn_members;
  for (std::uint32_t u = 0; u < l; ++u) {
    if (scratch.vertex_tau[u] < 2 &&
        scratch.vertex_tau[scratch.merge.Find(u)] < 2) {
      continue;  // isolated member: belongs to no social context
    }
    const std::uint32_t root = scratch.merge.Find(u);
    auto [it, inserted] =
        root_to_sn.emplace(root, static_cast<std::uint32_t>(sn_tau.size()));
    if (inserted) {
      sn_tau.push_back(scratch.vertex_tau[root]);
      sn_members.emplace_back();
    }
    sn_members[it->second].push_back(ego.ToGlobal(u));
  }

  // Order supernodes by (trussness desc, smallest member asc).
  const std::uint32_t num_sn = static_cast<std::uint32_t>(sn_tau.size());
  std::vector<std::uint32_t> order(num_sn);
  std::iota(order.begin(), order.end(), 0U);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (sn_tau[a] != sn_tau[b]) return sn_tau[a] > sn_tau[b];
              return sn_members[a].front() < sn_members[b].front();
            });
  std::vector<std::uint32_t> position(num_sn);
  for (std::uint32_t i = 0; i < num_sn; ++i) position[order[i]] = i;

  for (std::uint32_t i = 0; i < num_sn; ++i) {
    const std::uint32_t sn = order[i];
    chunk.sn_tau.push_back(sn_tau[sn]);
    chunk.max_trussness = std::max(chunk.max_trussness, sn_tau[sn]);
    auto& members = sn_members[sn];
    std::sort(members.begin(), members.end());
    chunk.members.insert(chunk.members.end(), members.begin(), members.end());
    chunk.sn_member_count.push_back(
        static_cast<std::uint32_t>(members.size()));
  }
  chunk.per_vertex_sn_count.push_back(num_sn);

  // Resolve superedges to final supernode slice positions and order them
  // by weight descending (ties: by (a, b) for determinism).
  struct FinalSuperedge {
    std::uint32_t a, b, w;
  };
  std::vector<FinalSuperedge> finals;
  finals.reserve(scratch.raw_superedges.size());
  for (const auto& raw : scratch.raw_superedges) {
    std::uint32_t a = position[root_to_sn.at(scratch.merge.Find(raw.u))];
    std::uint32_t b = position[root_to_sn.at(scratch.merge.Find(raw.w))];
    if (a > b) std::swap(a, b);
    finals.push_back({a, b, raw.weight});
  }
  std::sort(finals.begin(), finals.end(),
            [](const FinalSuperedge& x, const FinalSuperedge& y) {
              if (x.w != y.w) return x.w > y.w;
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  for (const auto& fe : finals) {
    chunk.se_a.push_back(fe.a);
    chunk.se_b.push_back(fe.b);
    chunk.se_w.push_back(fe.w);
  }
  chunk.per_vertex_se_count.push_back(
      static_cast<std::uint32_t>(finals.size()));
}

}  // namespace

GctIndex GctIndex::Build(const Graph& graph, const Options& options) {
  TSD_CHECK(options.num_threads >= 1);
  WallTimer total;
  GctIndex index;
  const VertexId n = graph.num_vertices();
  std::vector<std::uint32_t> sn_offsets(std::size_t{n} + 1, 0);
  std::vector<std::uint32_t> se_offsets(std::size_t{n} + 1, 0);
  std::vector<std::uint32_t> member_offsets(1, 0);
  std::vector<std::uint32_t> sn_tau;
  std::vector<VertexId> members;
  std::vector<std::uint32_t> se_a;
  std::vector<std::uint32_t> se_b;
  std::vector<std::uint32_t> se_w;

  // Ego-network source: one-shot global listing (Section 6.2) or the
  // per-vertex extractor (ablation). The listing is shared read-only
  // across workers.
  std::unique_ptr<GlobalEgoNetworks> global;
  if (options.use_global_listing) {
    WallTimer listing;
    // The listing's triangle passes run on the build workers too (it used
    // to be the build's sequential prologue).
    global = std::make_unique<GlobalEgoNetworks>(
        graph, ParallelConfig{options.num_threads, 0});
    index.build_stats_.extraction_seconds += listing.Seconds();
  }

  const std::uint32_t num_chunks =
      EffectiveChunks(ParallelConfig{options.num_threads, 0}, n);
  std::vector<GctChunk> chunks(num_chunks);

  ParallelForChunks(
      n, num_chunks, options.num_threads,
      [&](std::uint32_t c, std::uint64_t begin, std::uint64_t end) {
        GctChunk& chunk = chunks[c];
        EgoNetworkExtractor extractor(graph);
        EgoTrussDecomposer decomposer(options.method);
        EgoNetwork ego;
        std::vector<std::uint32_t> trussness;
        SupernodeBuilder scratch;
        for (std::uint64_t v = begin; v < end; ++v) {
          {
            ScopedTimer t(&chunk.extraction_seconds);
            if (global != nullptr) {
              global->MaterializeInto(static_cast<VertexId>(v), &ego);
            } else {
              extractor.ExtractInto(static_cast<VertexId>(v), &ego);
            }
          }
          {
            ScopedTimer t(&chunk.decomposition_seconds);
            decomposer.ComputeInto(ego, &trussness);
          }
          ScopedTimer t(&chunk.assembly_seconds);
          AssembleSupernodes(ego, trussness, scratch, chunk);
        }
      });

  // Merge chunks in vertex order.
  VertexId v = 0;
  std::size_t sn_cursor = 0;
  for (GctChunk& chunk : chunks) {
    std::size_t local_sn = 0;
    std::size_t local_se = 0;
    for (std::size_t i = 0; i < chunk.per_vertex_sn_count.size(); ++i) {
      local_sn += chunk.per_vertex_sn_count[i];
      local_se += chunk.per_vertex_se_count[i];
      sn_offsets[v + 1] = static_cast<std::uint32_t>(sn_cursor + local_sn);
      se_offsets[v + 1] = static_cast<std::uint32_t>(se_w.size() + local_se);
      ++v;
    }
    sn_cursor += local_sn;
    sn_tau.insert(sn_tau.end(), chunk.sn_tau.begin(), chunk.sn_tau.end());
    for (std::uint32_t count : chunk.sn_member_count) {
      TSD_CHECK_MSG(member_offsets.back() + std::uint64_t{count} < UINT32_MAX,
                    "GCT member array overflows 32-bit offsets");
      member_offsets.push_back(member_offsets.back() + count);
    }
    members.insert(members.end(), chunk.members.begin(), chunk.members.end());
    se_a.insert(se_a.end(), chunk.se_a.begin(), chunk.se_a.end());
    se_b.insert(se_b.end(), chunk.se_b.begin(), chunk.se_b.end());
    se_w.insert(se_w.end(), chunk.se_w.begin(), chunk.se_w.end());
    index.max_trussness_ = std::max(index.max_trussness_, chunk.max_trussness);
    index.build_stats_.extraction_seconds += chunk.extraction_seconds;
    index.build_stats_.decomposition_seconds += chunk.decomposition_seconds;
    index.build_stats_.assembly_seconds += chunk.assembly_seconds;
  }
  TSD_CHECK(v == n);
  index.sn_offsets_ = std::move(sn_offsets);
  index.sn_tau_ = std::move(sn_tau);
  index.member_offsets_ = std::move(member_offsets);
  index.members_ = std::move(members);
  index.se_offsets_ = std::move(se_offsets);
  index.se_a_ = std::move(se_a);
  index.se_b_ = std::move(se_b);
  index.se_w_ = std::move(se_w);
  index.build_stats_.total_seconds = total.Seconds();
  return index;
}

std::uint32_t GctIndex::Score(VertexId v, std::uint32_t k) const {
  TSD_DCHECK(k >= 2);
  TSD_DCHECK(v < num_vertices());
  // N_k: supernodes with trussness >= k (slice sorted descending).
  const auto sn_first = sn_tau_.begin() + sn_offsets_[v];
  const auto sn_last = sn_tau_.begin() + sn_offsets_[v + 1];
  const auto n_k = std::partition_point(
      sn_first, sn_last, [k](std::uint32_t tau) { return tau >= k; });
  // M_k: superedges with weight >= k.
  const auto se_first = se_w_.begin() + se_offsets_[v];
  const auto se_last = se_w_.begin() + se_offsets_[v + 1];
  const auto m_k = std::partition_point(
      se_first, se_last, [k](std::uint32_t w) { return w >= k; });
  // Lemma 3.
  return static_cast<std::uint32_t>((n_k - sn_first) - (m_k - se_first));
}

void GctIndex::ScoresForThresholds(VertexId v,
                                   std::span<const std::uint32_t> thresholds,
                                   std::uint32_t* scores) const {
  TSD_DCHECK(v < num_vertices());
  // Both slices are sorted by weight descending, so the ≥k prefixes only
  // grow as the threshold drops: one merged sweep serves every k.
  const auto sn_begin = sn_offsets_[v];
  const auto sn_end = sn_offsets_[v + 1];
  const auto se_begin = se_offsets_[v];
  const auto se_end = se_offsets_[v + 1];
  std::uint32_t n_k = 0;
  std::uint32_t m_k = 0;
  for (std::size_t t = 0; t < thresholds.size(); ++t) {
    const std::uint32_t k = thresholds[t];
    TSD_DCHECK(t == 0 || thresholds[t - 1] > k);
    while (sn_begin + n_k < sn_end && sn_tau_[sn_begin + n_k] >= k) ++n_k;
    while (se_begin + m_k < se_end && se_w_[se_begin + m_k] >= k) ++m_k;
    scores[t] = n_k - m_k;  // Lemma 3
  }
}

ScoreResult GctIndex::ScoreWithContexts(VertexId v, std::uint32_t k,
                                        IndexQueryScratch& scratch) const {
  TSD_CHECK(k >= 2);
  TSD_CHECK(v < num_vertices());
  const auto sn_begin = sn_offsets_[v];
  const auto sn_end = sn_offsets_[v + 1];
  std::uint32_t n_k = 0;
  while (sn_begin + n_k < sn_end && sn_tau_[sn_begin + n_k] >= k) ++n_k;

  scratch.dsu.Reset(n_k);
  const auto se_begin = se_offsets_[v];
  const auto se_end = se_offsets_[v + 1];
  for (auto i = se_begin; i < se_end && se_w_[i] >= k; ++i) {
    TSD_DCHECK(se_a_[i] < n_k && se_b_[i] < n_k);
    scratch.dsu.Union(se_a_[i], se_b_[i]);
  }

  // Each context gathers its supernodes' members, which are not in global
  // id order, so members and contexts are sorted afterwards.
  ScoreResult result;
  GroupBySet(
      scratch.dsu, scratch.slots, &result.contexts,
      [](std::uint32_t) { return true; },
      [&](SocialContext& context, std::uint32_t i) {
        const auto mem_begin = member_offsets_[sn_begin + i];
        const auto mem_end = member_offsets_[sn_begin + i + 1];
        context.insert(context.end(), members_.begin() + mem_begin,
                       members_.begin() + mem_end);
      });
  result.score = static_cast<std::uint32_t>(result.contexts.size());
  for (SocialContext& context : result.contexts) {
    std::sort(context.begin(), context.end());
  }
  std::sort(result.contexts.begin(), result.contexts.end(),
            [](const SocialContext& a, const SocialContext& b) {
              return a.front() < b.front();
            });
  TSD_DCHECK(result.score == Score(v, k));
  return result;
}

TopRResult GctIndex::TopR(std::uint32_t r, std::uint32_t k,
                          QuerySession& session) const {
  TSD_CHECK(r >= 1);
  TSD_CHECK(k >= 2);
  WallTimer total;
  TopRResult result;
  const VertexId n = num_vertices();

  // Index-only pipeline: score queries are two binary searches per vertex.
  QueryPipeline& pipeline = session.IndexPipeline();
  TopRCollector collector(r);
  TopRCollector* const collectors[] = {&collector};
  {
    ScopedTimer t(&result.stats.score_seconds);
    result.stats.vertices_scored = pipeline.ScoreRange(
        n, collectors, [&](QueryWorkspace&, VertexId v, std::uint32_t* score) {
          *score = Score(v, k);
        });
  }
  {
    ScopedTimer t(&result.stats.context_seconds);
    pipeline.MaterializeEntries(
        collector.Ranked(), &result.entries,
        [&](QueryWorkspace& ws, VertexId v) {
          return ScoreWithContexts(v, k, ws.index_scratch()).contexts;
        });
  }
  result.stats.threads_used = pipeline.num_threads();
  result.stats.total_seconds = total.Seconds();
  return result;
}

std::vector<TopRResult> GctIndex::SearchBatch(
    std::span<const BatchQuery> queries, QuerySession& session) const {
  WallTimer total;
  std::vector<TopRResult> results(queries.size());
  if (queries.empty()) return results;
  SearchStats stats;
  BatchQueryRunner runner(queries);
  QueryPipeline& pipeline = session.IndexPipeline();

  {
    ScopedTimer t(&stats.score_seconds);
    stats.vertices_scored = runner.Scan(
        pipeline, num_vertices(),
        [this, &runner](QueryWorkspace&, VertexId v, std::uint32_t* out) {
          ScoresForThresholds(v, runner.thresholds(), out);
        });
  }

  {
    ScopedTimer t(&stats.context_seconds);
    runner.MaterializeGrouped(
        pipeline, &results, [](QueryWorkspace&, VertexId) {},
        [this](QueryWorkspace& ws, VertexId v, std::uint32_t k) {
          return ScoreWithContexts(v, k, ws.index_scratch()).contexts;
        });
  }

  stats.threads_used = pipeline.num_threads();
  stats.total_seconds = total.Seconds();
  FillBatchStats(&results, stats);
  return results;
}

std::size_t GctIndex::SizeBytes() const {
  return (sn_offsets_.size() + sn_tau_.size() + member_offsets_.size() +
          se_offsets_.size() + se_a_.size() + se_b_.size() + se_w_.size()) *
             sizeof(std::uint32_t) +
         members_.size() * sizeof(VertexId);
}

void GctIndex::Save(const std::string& path) const {
  SnapshotWriter writer(path);
  AppendToSnapshot(writer);
  writer.Finish();
}

GctIndex GctIndex::Load(const std::string& path) {
  SnapshotReader reader;
  std::string error;
  TSD_CHECK_MSG(SnapshotReader::Open(path, &reader, &error), error);
  GctIndex index;
  TSD_CHECK_MSG(LoadFromSnapshot(reader, &index, &error), error);
  return index;
}

void GctIndex::AppendToSnapshot(SnapshotWriter& writer) const {
  const std::uint64_t meta[] = {kGctSchemaVersion, num_vertices(),
                                max_trussness_};
  writer.AddScalars(kGctMetaTag, meta);
  writer.AddArray(kGctSnOffsetsTag, sn_offsets_.span());
  writer.AddArray(kGctSnTauTag, sn_tau_.span());
  writer.AddArray(kGctMemberOffsetsTag, member_offsets_.span());
  writer.AddArray(kGctMembersTag, members_.span());
  writer.AddArray(kGctSeOffsetsTag, se_offsets_.span());
  writer.AddArray(kGctSeATag, se_a_.span());
  writer.AddArray(kGctSeBTag, se_b_.span());
  writer.AddArray(kGctSeWTag, se_w_.span());
}

bool GctIndex::LoadFromSnapshot(const SnapshotReader& reader, GctIndex* out,
                                std::string* error) {
  *out = GctIndex();

  std::uint64_t meta[3] = {};
  if (!reader.ReadScalars(kGctMetaTag, meta, error)) return false;
  if (meta[0] != kGctSchemaVersion) {
    return Fail(error, "unsupported GCT schema version " +
                           std::to_string(meta[0]) + " (this build reads " +
                           std::to_string(kGctSchemaVersion) + ")");
  }
  if (meta[1] > kInvalidVertex) return Fail(error, "vertex count overflow");
  const auto n = static_cast<VertexId>(meta[1]);
  const auto max_trussness = static_cast<std::uint32_t>(meta[2]);

  std::span<const std::uint32_t> sn_offsets;
  std::span<const std::uint32_t> sn_tau;
  std::span<const std::uint32_t> member_offsets;
  std::span<const VertexId> members;
  std::span<const std::uint32_t> se_offsets;
  std::span<const std::uint32_t> se_a;
  std::span<const std::uint32_t> se_b;
  std::span<const std::uint32_t> se_w;
  if (!reader.Read(kGctSnOffsetsTag, &sn_offsets, error) ||
      !reader.Read(kGctSnTauTag, &sn_tau, error) ||
      !reader.Read(kGctMemberOffsetsTag, &member_offsets, error) ||
      !reader.Read(kGctMembersTag, &members, error) ||
      !reader.Read(kGctSeOffsetsTag, &se_offsets, error) ||
      !reader.Read(kGctSeATag, &se_a, error) ||
      !reader.Read(kGctSeBTag, &se_b, error) ||
      !reader.Read(kGctSeWTag, &se_w, error)) {
    return false;
  }

  // Cheap structural pre-checks: sizes, monotone offsets, and bounds, so
  // that CheckInvariants below (which trusts offset arithmetic) cannot be
  // driven out of range or into an attacker-sized allocation.
  if (sn_offsets.size() != std::size_t{n} + 1 ||
      se_offsets.size() != std::size_t{n} + 1) {
    return Fail(error, "offsets size mismatch");
  }
  if (member_offsets.size() != sn_tau.size() + 1) {
    return Fail(error, "member offsets size mismatch");
  }
  if (se_a.size() != se_w.size() || se_b.size() != se_w.size()) {
    return Fail(error, "superedge arrays size mismatch");
  }
  if (sn_offsets[0] != 0 || sn_offsets[n] != sn_tau.size() ||
      se_offsets[0] != 0 || se_offsets[n] != se_w.size() ||
      member_offsets[0] != 0 || member_offsets.back() != members.size()) {
    return Fail(error, "offsets do not span their arrays");
  }
  for (VertexId v = 0; v < n; ++v) {
    if (sn_offsets[v] > sn_offsets[v + 1] ||
        se_offsets[v] > se_offsets[v + 1]) {
      return Fail(error, "offsets not monotone");
    }
  }
  for (std::size_t i = 0; i + 1 < member_offsets.size(); ++i) {
    if (member_offsets[i] > member_offsets[i + 1]) {
      return Fail(error, "member offsets not monotone");
    }
  }
  std::uint32_t seen_max_trussness = 0;
  for (const std::uint32_t tau : sn_tau) {
    seen_max_trussness = std::max(seen_max_trussness, tau);
  }
  if (seen_max_trussness != max_trussness) {
    return Fail(error, "max trussness mismatch");
  }
  for (const VertexId member : members) {
    if (member >= n) return Fail(error, "member vertex out of range");
  }

  GctIndex index;
  index.sn_offsets_.BindView(sn_offsets);
  index.sn_tau_.BindView(sn_tau);
  index.member_offsets_.BindView(member_offsets);
  index.members_.BindView(members);
  index.se_offsets_.BindView(se_offsets);
  index.se_a_.BindView(se_a);
  index.se_b_.BindView(se_b);
  index.se_w_.BindView(se_w);
  index.max_trussness_ = max_trussness;
  index.mapping_ = reader.mapping();

  // The deep semantic invariants (slice ordering, superedge weights, forest
  // acyclicity) are shared with the build-time checker; translate its CHECK
  // failures into this API's error-return discipline.
  try {
    index.CheckInvariants();
  } catch (const CheckError& e) {
    return Fail(error, e.what());
  }
  *out = std::move(index);
  return true;
}

void GctIndex::CheckInvariants() const {
  const VertexId n = num_vertices();
  TSD_CHECK(se_offsets_.size() == sn_offsets_.size());
  TSD_CHECK(sn_offsets_.back() == sn_tau_.size());
  TSD_CHECK(member_offsets_.size() == sn_tau_.size() + 1);
  TSD_CHECK(member_offsets_.back() == members_.size());
  TSD_CHECK(se_offsets_.back() == se_w_.size());
  TSD_CHECK(se_a_.size() == se_w_.size() && se_b_.size() == se_w_.size());

  // One union-find arena reused across vertices; a fresh DisjointSet per
  // vertex would make this pass allocation-bound on large graphs.
  DisjointSet forest;
  for (VertexId v = 0; v < n; ++v) {
    const auto sn_begin = sn_offsets_[v];
    const auto sn_end = sn_offsets_[v + 1];
    const std::uint32_t num_sn =
        static_cast<std::uint32_t>(sn_end - sn_begin);
    for (auto i = sn_begin; i + 1 < sn_end; ++i) {
      TSD_CHECK_MSG(sn_tau_[i] >= sn_tau_[i + 1],
                    "supernode trussness not descending at vertex " << v);
    }
    for (auto i = sn_begin; i < sn_end; ++i) {
      TSD_CHECK_MSG(sn_tau_[i] >= 2, "supernode trussness below 2");
      TSD_CHECK(member_offsets_[i + 1] > member_offsets_[i]);
    }
    forest.Reset(num_sn);
    const auto se_begin = se_offsets_[v];
    const auto se_end = se_offsets_[v + 1];
    for (auto i = se_begin; i < se_end; ++i) {
      TSD_CHECK(se_a_[i] < num_sn && se_b_[i] < num_sn);
      if (i + 1 < se_end) TSD_CHECK(se_w_[i] >= se_w_[i + 1]);
      const std::uint32_t tau_a = sn_tau_[sn_begin + se_a_[i]];
      const std::uint32_t tau_b = sn_tau_[sn_begin + se_b_[i]];
      TSD_CHECK_MSG(se_w_[i] <= tau_a && se_w_[i] <= tau_b,
                    "superedge heavier than its endpoints");
      TSD_CHECK_MSG(se_w_[i] < tau_a || se_w_[i] < tau_b,
                    "superedge endpoints should have merged");
      TSD_CHECK_MSG(forest.Union(se_a_[i], se_b_[i]),
                    "superedge cycle at vertex " << v);
    }
  }
}

}  // namespace tsd
