// The traced layer probes. Each probe calls one module's public functions
// from the benchmark's own code, on this run's graph, under a span; the
// per-layer metrics are derived from those spans and from the counters the
// modules expose. Every probe runs on every workload, so each traced run
// reports the full per-layer set for its own input.
#include <atomic>
#include <cmath>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/snapshot.h"
#include "core/bound_search.h"
#include "core/dynamic_tsd_index.h"
#include "core/gct_index.h"
#include "core/online_search.h"
#include "core/query_session.h"
#include "core/tsd_index.h"
#include "graph/edge_list_io.h"
#include "graph/ego_network.h"
#include "graph/graph.h"
#include "graph/triangle.h"
#include "server/live_index.h"
#include "server/sharded_serve.h"
#include "server/socket_serve.h"
#include "truss/ego_truss.h"
#include "truss/truss_decomposition.h"
#include "wire.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kRepeats = 3;          // timed repeats of whole-graph probes
constexpr double kServeRate = 1000;  // serve_gct's nominal rate
constexpr std::size_t kServeRequests = 1500;
constexpr std::size_t kLiveUpdates = 300;
// Up to 22.6k requests/s, then three bisections. The p99 limit sits above
// the 5-15 ms stalls a shared one-core host shows at any rate, so the rung
// that misses is the one where queueing really starts.
constexpr LadderConfig kLadder{1000, 10, 3, 0.5, 50.0};

struct MethodProbe {
  const char* name;
  const char* span;
};
constexpr MethodProbe kMethods[] = {
    {"online", "core.OnlineSearcher::TopR"},
    {"bound", "core.BoundSearcher::TopR"},
    {"tsd", "core.TsdIndex::TopR"},
    {"gct", "core.GctIndex::TopR"},
};

double MedianOf(const Tracer& tracer, const char* name) {
  return Median(tracer.Seconds(name));
}

double SumOf(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return sum;
}

std::vector<double> Scaled(std::vector<double> values, double factor) {
  for (double& v : values) v *= factor;
  return values;
}

}  // namespace

Checks RunProbes(const Ctx& ctx, Tracer& tracer, MetricSet* m) {
  Checks checks;
  const int root = tracer.Begin("probes");

  // graph/: parse, triangle supports, ego extraction.
  tsd::Graph graph;
  for (int i = 0; i < kRepeats; ++i) {
    ScopedSpan span(tracer, "graph.LoadEdgeListText", i);
    graph = tsd::LoadEdgeListText(GraphPath(ctx));
  }
  m->Set("graph.parse_s", MedianOf(tracer, "graph.LoadEdgeListText"), "s");

  std::uint64_t triangles = 0;
  for (int i = 0; i < kRepeats; ++i) {
    ScopedSpan span(tracer, "graph.ComputeSupport", i);
    const std::vector<std::uint32_t> support = tsd::ComputeSupport(graph);
    triangles = 0;
    for (std::uint32_t s : support) triangles += s;
    triangles /= 3;
  }
  const double support_s = MedianOf(tracer, "graph.ComputeSupport");
  m->Set("graph.support_s", support_s, "s");
  m->Set("graph.triangles", static_cast<double>(triangles), "count");

  // truss/: the global decomposition the bound searcher runs (Auto plan).
  for (int i = 0; i < kRepeats; ++i) {
    ScopedSpan span(tracer, "truss.TrussDecomposition", i);
    const tsd::TrussDecomposition truss(graph, tsd::ParallelConfig{},
                                        tsd::TrussPlan::Auto());
    if (i == 0) {
      std::cerr << "  truss plan: "
                << tsd::TrussPlanAlgorithmName(truss.plan_stats().algorithm)
                << ", max trussness " << truss.max_trussness() << "\n";
    }
  }
  const double decompose_s = MedianOf(tracer, "truss.TrussDecomposition");
  m->Set("truss.decompose_s", decompose_s, "s");
  m->Set("truss.peel_s", decompose_s - support_s, "s");

  // The ego path of every online query: extract + decompose each vertex.
  {
    ScopedSpan pass(tracer, "probe.ego_pass");
    tsd::EgoNetworkExtractor extractor(graph);
    tsd::EgoTrussDecomposer decomposer(tsd::EgoTrussMethod::kHash);
    tsd::EgoNetwork ego;
    std::vector<std::uint32_t> trussness;
    std::uint64_t ego_edges = 0;
    for (tsd::VertexId v = 0; v < graph.num_vertices(); ++v) {
      {
        ScopedSpan span(tracer, "graph.EgoNetworkExtractor::ExtractInto", v);
        extractor.ExtractInto(v, &ego);
      }
      {
        ScopedSpan span(tracer, "truss.EgoTrussDecomposer::ComputeInto", v);
        decomposer.ComputeInto(ego, &trussness);
      }
      ego_edges += ego.num_edges();
    }
    m->Set("graph.ego_edges", static_cast<double>(ego_edges), "count");
  }
  m->Set("graph.ego_extract_s",
         SumOf(tracer.Seconds("graph.EgoNetworkExtractor::ExtractInto")), "s");
  m->Set("truss.ego_decompose_s",
         SumOf(tracer.Seconds("truss.EgoTrussDecomposer::ComputeInto")), "s");

  // core/: index builds (the last build of each kind is kept).
  std::unique_ptr<tsd::TsdIndex> tsd_index;
  std::unique_ptr<tsd::GctIndex> gct;
  std::unique_ptr<tsd::DynamicTsdIndex> dynamic;
  for (int i = 0; i < kRepeats; ++i) {
    {
      ScopedSpan span(tracer, "core.TsdIndex::Build", i);
      tsd_index = std::make_unique<tsd::TsdIndex>(tsd::TsdIndex::Build(graph));
    }
    {
      ScopedSpan span(tracer, "core.GctIndex::Build", i);
      gct = std::make_unique<tsd::GctIndex>(tsd::GctIndex::Build(graph));
    }
    dynamic.reset();
    ScopedSpan span(tracer, "core.DynamicTsdIndex", i);
    dynamic = std::make_unique<tsd::DynamicTsdIndex>(graph);
  }
  m->Set("core.build_s.tsd", MedianOf(tracer, "core.TsdIndex::Build"), "s");
  m->Set("core.build_s.gct", MedianOf(tracer, "core.GctIndex::Build"), "s");
  m->Set("core.build_s.dynamic", MedianOf(tracer, "core.DynamicTsdIndex"), "s");
  m->Set("core.index_bytes.tsd", static_cast<double>(tsd_index->SizeBytes()), "B");
  m->Set("core.index_bytes.gct", static_cast<double>(gct->SizeBytes()), "B");

  // graph/ + common/snapshot: map a snapshot of this graph.
  std::string snapshot = SnapshotPath(ctx);
  if (ctx.workload != "serve_gct") {
    snapshot = ctx.dir + "/probe.snap";
    tsd::SnapshotWriter writer(snapshot);
    graph.AppendToSnapshot(writer);
    gct->AppendToSnapshot(writer);
    writer.Finish();
  }
  for (int i = 0; i < kRepeats; ++i) {
    ScopedSpan span(tracer, "graph.snapshot_map", i);
    tsd::SnapshotReader reader;
    tsd::Graph mapped;
    std::string error;
    bool ok = false;
    {
      ScopedSpan open(tracer, "common.SnapshotReader::Open", i);
      ok = tsd::SnapshotReader::Open(snapshot, &reader, &error);
    }
    {
      ScopedSpan load(tracer, "graph.Graph::LoadFromSnapshot", i);
      ok = ok && tsd::Graph::LoadFromSnapshot(reader, &mapped, &error);
    }
    checks.Add(ok && mapped.num_edges() == graph.num_edges());
  }
  m->Set("graph.snapshot_map_s", MedianOf(tracer, "graph.snapshot_map"), "s");

  // core/: one query per k at r = 10 on each method; the four answers must
  // agree bit for bit.
  {
    const tsd::OnlineSearcher online(graph);
    const tsd::BoundSearcher bound(graph);
    const tsd::DiversitySearcher* searchers[] = {&online, &bound, tsd_index.get(),
                                                 gct.get()};
    tsd::QuerySession session;
    std::uint64_t edges_pruned = 0;
    std::vector<std::vector<tsd::TopREntry>> first;
    for (int s = 0; s < 4; ++s) {
      std::vector<double> pre, score, context, scored;
      double entries = 0;
      for (std::uint32_t k = 3; k <= 8; ++k) {
        const int span = tracer.Begin(kMethods[s].span, k);
        const tsd::TopRResult result = searchers[s]->TopR(10, k, session);
        tracer.End(span);
        pre.push_back(result.stats.preprocess_seconds * 1e3);
        score.push_back(result.stats.score_seconds * 1e3);
        context.push_back(result.stats.context_seconds * 1e3);
        scored.push_back(static_cast<double>(result.stats.vertices_scored));
        entries += static_cast<double>(result.entries.size());
        if (s == 1) edges_pruned += result.stats.edges_pruned;
        const std::size_t q = k - 3;
        if (s == 0) {
          first.push_back(result.entries);
        } else {
          bool same = first[q].size() == result.entries.size();
          for (std::size_t i = 0; same && i < first[q].size(); ++i) {
            same = first[q][i].vertex == result.entries[i].vertex &&
                   first[q][i].score == result.entries[i].score &&
                   first[q][i].contexts == result.entries[i].contexts;
          }
          checks.Add(same);
        }
      }
      const std::string name = kMethods[s].name;
      // Online and GCT have no preprocess stage: their figure is always 0.
      if (s == 1 || s == 2) m->Set("core.preprocess_ms." + name, Mean(pre), "ms");
      m->Set("core.score_ms." + name, Mean(score), "ms");
      m->Set("core.context_ms." + name, Mean(context), "ms");
      m->Set("core.vertices_scored." + name, Mean(scored), "count");
      m->Set("core.useful_ratio." + name, entries / std::max(1.0, SumOf(scored)), "ratio");
    }
    m->Set("truss.edges_pruned", static_cast<double>(edges_pruned), "count");
  }

  // core/ + server/: GCT serving on this graph, compute alone, then
  // in-process serving, then the socket transport, on one schedule.
  const std::vector<Query> mix = ServeMix();
  std::vector<WireEntries> reference;
  tsd::QuerySession session;
  for (const Query& q : mix) reference.push_back(ToWire(gct->TopR(q.r, q.k, session)));
  const std::vector<Op> ops = ServeOps(kServeRequests, 16, SubSeed(ctx.seed, 6));
  std::vector<double> offsets;
  {
    Rng rng(SubSeed(ctx.seed, 7));
    offsets = PoissonOffsets(ops.size(), kServeRate, rng);
  }

  std::vector<double> batch1_us;
  for (int round = 0; round < kRepeats; ++round) {
    for (std::size_t j = 0; j < mix.size(); ++j) {
      const tsd::BatchQuery one{mix[j].k, mix[j].r};
      const int span = tracer.Begin("core.GctIndex::SearchBatch.1", j);
      const std::int64_t start = NowNs();
      const std::vector<tsd::TopRResult> result = gct->SearchBatch({&one, 1}, session);
      batch1_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
      tracer.End(span);
      checks.Add(ToWire(result.at(0)) == reference[j]);
    }
  }
  m->Set("core.batch1_us.gct", Median(batch1_us), "us");

  std::vector<double> inproc_us(ops.size());
  std::uint64_t rejected = 0;
  {
    tsd::ShardedServeLoop loop(*gct);
    loop.Start();
    std::vector<std::int64_t> scheduled(ops.size());
    // Written by the completion hook on the consumer thread, which may run
    // just after Get() returns, hence atomic and awaited below.
    std::vector<std::atomic<std::int64_t>> done(ops.size());
    std::vector<tsd::Future<tsd::ServeReply>> futures;
    futures.reserve(ops.size());
    const int phase = tracer.Begin("probe.inproc");
    const std::int64_t start = NowNs() + 2'000'000;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      scheduled[i] = start + static_cast<std::int64_t>(offsets[i] * 1e9);
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(scheduled[i])));
      const Query& q = mix[ops[i].mix];
      futures.push_back(loop.Submit({ops[i].tenant, q.k, q.r}));
      futures.back().OnReady([&done, i] { done[i] = NowNs(); });
    }
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const tsd::ServeReply reply = futures[i].Get();
      checks.Add(reply.status == tsd::ServeStatus::kOk &&
                 ToWire(reply.result) == reference[ops[i].mix]);
      std::int64_t finished = 0;
      while ((finished = done[i].load()) == 0) std::this_thread::yield();
      inproc_us[i] = static_cast<double>(finished - scheduled[i]) / 1e3;
      tracer.Add("server.inproc.request", scheduled[i], finished, i);
    }
    tracer.End(phase);
    loop.Shutdown();
    const tsd::ServeStats stats = loop.stats();
    rejected += stats.rejected_bad_query + stats.rejected_r_limit +
                stats.rejected_queue_depth + stats.rejected_shutdown;
  }
  const double inproc_p50 = Median(inproc_us);
  m->Set("server.inproc_p50_us", inproc_p50, "us");
  m->Set("server.inproc_p99_us", Quantile(inproc_us, 0.99), "us");
  m->Set("server.wait_p50_us", inproc_p50 - Median(batch1_us), "us");

  {
    tsd::ShardedServeLoop loop(*gct);
    tsd::SocketServer server(loop);
    server.Start();
    std::vector<std::string> frames;
    for (const Op& op : ops) {
      frames.push_back(EncodeQuery(op.tenant, mix[op.mix].k, mix[op.mix].r));
    }
    OpenLoopResult result;
    {
      std::vector<WireConn> conns;
      for (int c = 0; c < 2; ++c) conns.emplace_back(server.port());
      ScopedSpan phase(tracer, "probe.socket");
      result = RunOpenLoop(
          conns, frames, offsets,
          [&](std::size_t i, const Reply& reply) {
            return reply.type == kReplyFrame && reply.status == 0 &&
                   reply.entries == reference[ops[i].mix];
          },
          20.0);
      for (std::size_t i = 0; i < ops.size(); ++i) {
        tracer.Add("server.socket.request", result.scheduled_ns[i],
                   result.done_ns[i] != 0 ? result.done_ns[i] : NowNs(), i);
      }
    }
    checks.attempted += ops.size();
    checks.failed += result.failed();
    const tsd::ServeStats stats = loop.stats();
    const tsd::SocketServerStats wire = server.stats();

    // The rate ladder on the same server: the open-loop capacity.
    {
      std::vector<WireConn> conns;
      for (int c = 0; c < 2; ++c) conns.emplace_back(server.port());
      const std::vector<Op> ladder_ops = ServeOps(80000, 16, SubSeed(ctx.seed, 9));
      Rng rng(SubSeed(ctx.seed, 10));
      const LadderResult ladder = RunLadder(
          conns, ladder_ops, mix, 0, kLadder, rng,
          [&](const Op& op, const Reply& reply) {
            return reply.type == kReplyFrame && reply.status == 0 &&
                   reply.entries == reference[op.mix];
          },
          tracer);
      checks.attempted += ladder.attempted;
      checks.failed += ladder.failed;
      m->Set("server.ladder_max_qps", ladder.max_qps, "1/s");
    }
    server.Shutdown();
    loop.Shutdown();
    const std::vector<double> socket_us = Scaled(result.LatencyMs(), 1e3);
    m->Set("server.wire_p50_us", Median(socket_us) - inproc_p50, "us");
    m->Set("gen.lag_p99_us", Quantile(result.LagUs(), 0.99), "us");

    rejected += stats.rejected_bad_query + stats.rejected_r_limit +
                stats.rejected_queue_depth + stats.rejected_shutdown;
    const double batch_mean = static_cast<double>(stats.served) /
                              static_cast<double>(std::max<std::uint64_t>(1, stats.batches));
    m->Set("server.batch_mean", batch_mean, "count");
    m->Set("server.batches", static_cast<double>(stats.batches), "count");
    m->Set("server.bytes_out_per_reply",
           static_cast<double>(wire.bytes_out) /
               static_cast<double>(std::max<std::uint64_t>(1, wire.replies_sent)),
           "B");
    m->Set("server.backpressure_pauses", static_cast<double>(wire.backpressure_pauses),
           "count");

    // core/: the same queries as coalesced batches of the mean size seen.
    const std::size_t size = std::max<std::size_t>(1, std::lround(batch_mean));
    std::vector<double> per_query_us;
    for (std::size_t at = 0; at + size <= ops.size() && per_query_us.size() < 200;
         at += size) {
      std::vector<tsd::BatchQuery> batch;
      for (std::size_t i = at; i < at + size; ++i) {
        batch.push_back({mix[ops[i].mix].k, mix[ops[i].mix].r});
      }
      const int span = tracer.Begin("core.GctIndex::SearchBatch.n", at);
      const std::int64_t start = NowNs();
      const std::vector<tsd::TopRResult> results = gct->SearchBatch(batch, session);
      per_query_us.push_back(static_cast<double>(NowNs() - start) / 1e3 /
                             static_cast<double>(size));
      tracer.End(span);
      for (std::size_t i = 0; i < size; ++i) {
        checks.Add(ToWire(results[i]) == reference[ops[at + i].mix]);
      }
    }
    m->Set("core.batchN_us.gct", Median(per_query_us), "us");
  }
  m->Set("server.rejected", static_cast<double>(rejected), "count");

  // server/ live updates + core/ dynamic index + common/epoch.
  {
    tsd::LiveUpdateApplier applier(*dynamic);
    const std::vector<Op> updates =
        LiveOps(ReadEdgeList(GraphPath(ctx)), kLiveUpdates, 1, SubSeed(ctx.seed, 8));
    const std::uint64_t rebuilds_before = dynamic->rebuild_count();
    std::uint64_t applied = 0;
    for (std::size_t i = 0; i < updates.size(); ++i) {
      const Op& op = updates[i];
      const int span = tracer.Begin("server.LiveUpdateApplier::ApplyUpdate", i);
      const bool did = applier.ApplyUpdate(op.kind == Op::kInsert, op.u, op.v);
      tracer.End(span);
      checks.Add(did == op.expect_applied);
      applied += did ? 1 : 0;
    }
    const std::vector<double> apply_us =
        Scaled(tracer.Seconds("server.LiveUpdateApplier::ApplyUpdate"), 1e6);
    m->Set("live.apply_p50_us", Median(apply_us), "us");
    m->Set("live.apply_p99_us", Quantile(apply_us, 0.99), "us");
    m->Set("live.rebuilds_per_update",
           static_cast<double>(dynamic->rebuild_count() - rebuilds_before) /
               static_cast<double>(std::max<std::uint64_t>(1, applied)),
           "count");
    m->Set("live.noop_share",
           1.0 - static_cast<double>(applied) / static_cast<double>(updates.size()),
           "ratio");
    for (const Query& q : LiveMix()) {
      ScopedSpan span(tracer, "core.DynamicTsdIndex::TopR", q.k * 1000 + q.r);
      dynamic->TopR(q.r, q.k, session);
    }
    m->Set("live.query_us",
           Mean(Scaled(tracer.Seconds("core.DynamicTsdIndex::TopR"), 1e6)), "us");
    const tsd::EpochStats epochs = dynamic->epoch_stats();
    m->Set("epoch.retired", static_cast<double>(epochs.retired), "count");
    m->Set("epoch.freed", static_cast<double>(epochs.freed), "count");
    m->Set("epoch.pending", static_cast<double>(epochs.retired - epochs.freed), "count");
  }

  tracer.End(root);
  return checks;
}

}  // namespace perfbench
