#include "workloads.h"

#include <cmath>
#include <iostream>
#include <memory>
#include <set>
#include <stdexcept>

#include "common/snapshot.h"
#include "core/bound_search.h"
#include "core/dynamic_tsd_index.h"
#include "core/gct_index.h"
#include "core/online_search.h"
#include "core/query_session.h"
#include "core/tsd_index.h"
#include "graph/edge_list_io.h"
#include "graph/graph.h"
#include "server/live_index.h"
#include "server/sharded_serve.h"
#include "server/socket_serve.h"
#include "wire.h"

namespace perfbench {
namespace {

// Set-ups per run (setup_s is their median): at least kMinSetups, more
// while they add up to under a second, at most kMaxSetups.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 9;

enum class Method { kOnline, kBound, kTsd, kGct };

Method MethodOf(const std::string& workload) {
  if (workload == "query_online") return Method::kOnline;
  if (workload == "query_bound") return Method::kBound;
  if (workload == "query_tsd") return Method::kTsd;
  return Method::kGct;
}

const char* TopRSpan(Method method) {
  switch (method) {
    case Method::kOnline: return "core.OnlineSearcher::TopR";
    case Method::kBound: return "core.BoundSearcher::TopR";
    case Method::kTsd: return "core.TsdIndex::TopR";
    case Method::kGct: return "core.GctIndex::TopR";
  }
  return "";
}

Answer ToAnswer(const tsd::TopRResult& result) {
  Answer answer;
  answer.reserve(result.entries.size());
  for (const tsd::TopREntry& e : result.entries) {
    answer.push_back({e.vertex, e.score, e.contexts});
  }
  return answer;
}

/// Runs `setup` several times, timing each and keeping the last stack (the
/// previous one is torn down, untimed, before the next set-up starts).
template <typename Stack, typename Fn>
std::unique_ptr<Stack> RepeatSetup(Tracer& tracer, E2E* e2e, Fn setup) {
  std::unique_ptr<Stack> stack;
  double total = 0;
  for (int i = 0; i < kMaxSetups && (i < kMinSetups || total < 1.0); ++i) {
    stack.reset();
    const int span = tracer.Begin("setup", static_cast<std::uint64_t>(i));
    const std::int64_t start = NowNs();
    stack = setup();
    e2e->setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    total += e2e->setup_s.back();
    tracer.End(span);
  }
  return stack;
}

// ---------------------------------------------------------------------------
// Closed loop: one caller sends direct TopR queries to one method.

struct QueryStack {
  tsd::Graph graph;
  std::unique_ptr<tsd::DiversitySearcher> searcher;
};

E2E RunQueryMethod(const Ctx& ctx, double seconds, Tracer& tracer) {
  const Method method = MethodOf(ctx.workload);
  E2E e2e;
  auto stack = RepeatSetup<QueryStack>(tracer, &e2e, [&] {
    auto s = std::make_unique<QueryStack>();
    {
      ScopedSpan span(tracer, "graph.LoadEdgeListText");
      s->graph = tsd::LoadEdgeListText(GraphPath(ctx));
    }
    switch (method) {
      case Method::kOnline:
        s->searcher = std::make_unique<tsd::OnlineSearcher>(s->graph);
        break;
      case Method::kBound:
        s->searcher = std::make_unique<tsd::BoundSearcher>(s->graph);
        break;
      case Method::kTsd: {
        ScopedSpan span(tracer, "core.TsdIndex::Build");
        s->searcher = std::make_unique<tsd::TsdIndex>(tsd::TsdIndex::Build(s->graph));
        break;
      }
      case Method::kGct: {
        ScopedSpan span(tracer, "core.GctIndex::Build");
        s->searcher = std::make_unique<tsd::GctIndex>(tsd::GctIndex::Build(s->graph));
        break;
      }
    }
    return s;
  });

  const std::vector<Answer> expected = ReadAnswers(AnswersPath(ctx));
  const std::vector<Query> mix = MethodMix();
  Rng rng(SubSeed(ctx.seed, 3));
  std::vector<std::uint32_t> stream;
  std::size_t cursor = 0;
  auto next = [&] {
    if (cursor == stream.size()) {
      stream = MixStream(mix.size(), mix.size() * 8, rng);
      cursor = 0;
    }
    return stream[cursor++];
  };

  tsd::QuerySession session;  // one pipeline thread
  const char* span_name = TopRSpan(method);
  // Warm-up (untimed, still checked): lazy session state fills here.
  {
    const std::uint32_t q = next();
    ++e2e.attempted;
    if (ToAnswer(stack->searcher->TopR(mix[q].r, mix[q].k, session)) != expected[q]) {
      ++e2e.failed;
    }
  }
  const int phase = tracer.Begin("measure");
  const std::int64_t end = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint64_t i = 0; NowNs() < end; ++i) {
    const std::uint32_t q = next();
    const int span = tracer.Begin(span_name, i);
    const std::int64_t start = NowNs();
    const tsd::TopRResult result = stack->searcher->TopR(mix[q].r, mix[q].k, session);
    const std::int64_t done = NowNs();
    tracer.End(span);
    e2e.latency_ms.push_back(static_cast<double>(done - start) / 1e6);
    ++e2e.attempted;
    if (ToAnswer(result) != expected[q]) ++e2e.failed;
  }
  tracer.End(phase);
  e2e.peak_rss_mb = PeakRssMb();
  return e2e;
}

// ---------------------------------------------------------------------------
// Open loop over the socket transport.

// Nominal open-loop rates: about a tenth of each workload's capacity on a
// host that behaves like one core, so the latency is that of a server with
// headroom (at higher live rates, requests queueing behind multi-millisecond
// hub updates made the tail swing with the host); the ladder probe measures
// capacity.
constexpr double kServeRate = 1000;
constexpr double kLiveRate = 250;

std::size_t NominalRequests(double rate, double seconds) {
  return static_cast<std::size_t>(rate * seconds);
}

/// A rung's backlog grows when the median number of requests outstanding
/// over its last quarter exceeds that over its second quarter (the first is
/// warm-up) by more than 2% of the rung's requests plus 8. Medians ignore a
/// short host stall, which piles requests up only briefly; under overload
/// the backlog climbs through the whole rung.
bool BacklogGrowing(const std::vector<std::uint32_t>& backlog) {
  const std::size_t q = backlog.size() / 4;
  if (q < 8) return false;
  std::vector<double> early(backlog.begin() + q, backlog.begin() + 2 * q);
  std::vector<double> late(backlog.begin() + 3 * q, backlog.end());
  return Median(late) > Median(early) + 0.02 * static_cast<double>(backlog.size()) + 8;
}

/// Sends ops [begin, begin + count) at `rate` (Poisson arrivals) as one
/// open-loop phase; records a span per request (scheduled send to reply)
/// with the generator's lateness as its child. Throws if replies are lost.
OpenLoopResult RunPhase(std::vector<WireConn>& conns, const std::vector<Op>& ops,
                        const std::vector<Query>& mix, std::size_t begin,
                        std::size_t count, double rate, Rng& rng,
                        const OpCheck& check, Tracer& tracer, const char* phase_name) {
  std::vector<std::string> frames(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Op& op = ops[begin + i];
    frames[i] = op.kind == Op::kQuery
                    ? EncodeQuery(op.tenant, mix[op.mix].k, mix[op.mix].r)
                    : EncodeUpdate(op.kind == Op::kInsert, op.u, op.v);
  }
  const std::vector<double> offsets = PoissonOffsets(count, rate, rng);
  const int phase = tracer.Begin(phase_name);
  OpenLoopResult result = RunOpenLoop(
      conns, frames, offsets,
      [&](std::size_t i, const Reply& reply) { return check(ops[begin + i], reply); },
      /*drain_timeout_s=*/20.0);
  if (tracer.enabled()) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::int64_t done = result.done_ns[i] != 0 ? result.done_ns[i] : NowNs();
      tracer.Add(ops[begin + i].kind == Op::kQuery ? "request.query" : "request.update",
                 result.scheduled_ns[i], done, begin + i);
      tracer.Add("loadgen.send_lag", result.scheduled_ns[i], result.sent_ns[i],
                 begin + i, tracer.Last());
    }
  }
  tracer.End(phase);
  if (!result.stream_intact) throw std::runtime_error("reply stream broken");
  return result;
}

}  // namespace

LadderResult RunLadder(std::vector<WireConn>& conns, const std::vector<Op>& ops,
                       const std::vector<Query>& mix, std::size_t begin,
                       const LadderConfig& config, Rng& rng, const OpCheck& check,
                       Tracer& tracer) {
  LadderResult out;
  std::size_t cursor = begin;
  auto run_rung = [&](double rate) {
    const std::size_t count = std::max<std::size_t>(
        1000, static_cast<std::size_t>(rate * config.rung_seconds));
    if (cursor + count > ops.size()) throw std::runtime_error("ladder ran out of ops");
    const OpenLoopResult r = RunPhase(conns, ops, mix, cursor, count, rate, rng,
                                      check, tracer, "phase.rung");
    cursor += count;
    out.attempted += count;
    out.failed += r.failed();
    const double p99 = Quantile(r.LatencyMs(), 0.99);
    const bool growing = BacklogGrowing(r.backlog);
    const bool pass = p99 <= config.p99_limit_ms && !growing && r.failed() == 0;
    const std::int64_t last_done = *std::max_element(r.done_ns.begin(), r.done_ns.end());
    const double completed_rate =
        static_cast<double>(count) /
        (static_cast<double>(last_done - r.scheduled_ns.front()) / 1e9);
    std::cerr << "  rung " << rate << "/s: p99 " << p99 << " ms, completed "
              << completed_rate << "/s, backlog " << (growing ? "growing" : "steady")
              << (pass ? "" : " -> limit") << "\n";
    if (pass) out.max_qps = completed_rate;
    return pass;
  };
  double lo = 0, hi = 0;
  for (int rung = 0; rung < config.max_rungs; ++rung) {
    const double rate = config.base_rate * std::pow(2.0, rung / 2.0);
    if (!run_rung(rate)) {
      hi = rate;
      break;
    }
    lo = rate;
  }
  for (int step = 0; step < config.bisections && lo > 0 && hi > 0; ++step) {
    const double rate = std::sqrt(lo * hi);
    (run_rung(rate) ? lo : hi) = rate;
  }
  return out;
}

namespace {

/// The measured open-loop phase at the workload's nominal rate.
void RunNominal(const Ctx& ctx, double rate, double seconds,
                std::vector<WireConn>& conns, const std::vector<Op>& ops,
                const std::vector<Query>& mix, const OpCheck& check,
                Tracer& tracer, E2E* e2e) {
  Rng rng(SubSeed(ctx.seed, 5));
  const std::size_t count = NominalRequests(rate, seconds);
  const OpenLoopResult result =
      RunPhase(conns, ops, mix, 0, count, rate, rng, check, tracer, "phase.nominal");
  e2e->attempted += count;
  e2e->failed += result.failed();
  e2e->latency_ms = result.LatencyMs();
  std::cerr << "  nominal " << rate << "/s: generator lag p99 "
            << Quantile(result.LagUs(), 0.99) << " us\n";
}

struct ServeStack {
  tsd::SnapshotReader reader;
  tsd::Graph graph;
  tsd::GctIndex gct;
  std::unique_ptr<tsd::ShardedServeLoop> loop;
  std::unique_ptr<tsd::SocketServer> server;
  ~ServeStack() {
    if (server) server->Shutdown();
    if (loop) loop->Shutdown();
  }
};

E2E RunServeGct(const Ctx& ctx, double seconds, Tracer& tracer) {
  E2E e2e;
  auto stack = RepeatSetup<ServeStack>(tracer, &e2e, [&] {
    auto s = std::make_unique<ServeStack>();
    std::string error;
    {
      ScopedSpan span(tracer, "graph.snapshot_map");
      if (!tsd::SnapshotReader::Open(SnapshotPath(ctx), &s->reader, &error) ||
          !tsd::Graph::LoadFromSnapshot(s->reader, &s->graph, &error)) {
        throw std::runtime_error("snapshot: " + error);
      }
    }
    {
      ScopedSpan span(tracer, "core.GctIndex::LoadFromSnapshot");
      if (!tsd::GctIndex::LoadFromSnapshot(s->reader, &s->gct, &error)) {
        throw std::runtime_error("snapshot: " + error);
      }
    }
    ScopedSpan span(tracer, "server.start");
    s->loop = std::make_unique<tsd::ShardedServeLoop>(s->gct);
    s->server = std::make_unique<tsd::SocketServer>(*s->loop);
    s->server->Start();
    return s;
  });

  const std::vector<Query> mix = ServeMix();
  std::vector<WireEntries> reference;
  {
    tsd::QuerySession session;
    for (const Query& q : mix) reference.push_back(ToWire(stack->gct.TopR(q.r, q.k, session)));
  }
  const std::vector<Op> ops =
      ServeOps(NominalRequests(kServeRate, seconds), 16, SubSeed(ctx.seed, 4));
  std::vector<WireConn> conns;
  for (int c = 0; c < 2; ++c) conns.emplace_back(stack->server->port());
  RunNominal(ctx, kServeRate, seconds, conns, ops, mix,
             [&](const Op& op, const Reply& reply) {
               return reply.type == kReplyFrame && reply.status == 0 &&
                      reply.entries == reference[op.mix];
             },
             tracer, &e2e);
  e2e.peak_rss_mb = PeakRssMb();
  return e2e;
}

struct LiveStack {
  tsd::Graph graph;
  std::unique_ptr<tsd::DynamicTsdIndex> index;
  std::unique_ptr<tsd::LiveUpdateApplier> applier;
  std::unique_ptr<tsd::ShardedServeLoop> loop;
  std::unique_ptr<tsd::SocketServer> server;
  ~LiveStack() {
    if (server) server->Shutdown();
    if (loop) loop->Shutdown();
  }
};

E2E RunLiveUpdates(const Ctx& ctx, double seconds, Tracer& tracer) {
  E2E e2e;
  auto stack = RepeatSetup<LiveStack>(tracer, &e2e, [&] {
    auto s = std::make_unique<LiveStack>();
    {
      ScopedSpan span(tracer, "graph.LoadEdgeListText");
      s->graph = tsd::LoadEdgeListText(GraphPath(ctx));
    }
    {
      ScopedSpan span(tracer, "core.DynamicTsdIndex");
      s->index = std::make_unique<tsd::DynamicTsdIndex>(s->graph);
    }
    ScopedSpan span(tracer, "server.start");
    s->applier = std::make_unique<tsd::LiveUpdateApplier>(*s->index);
    s->loop = std::make_unique<tsd::ShardedServeLoop>(*s->index);
    tsd::SocketServerOptions options;
    options.updater = s->applier.get();
    s->server = std::make_unique<tsd::SocketServer>(*s->loop, options);
    s->server->Start();
    return s;
  });

  const std::vector<Query> mix = LiveMix();
  const std::vector<Op> ops = ReadOps(OpsPath(ctx));
  const std::size_t consumed = NominalRequests(kLiveRate, seconds);
  if (ops.size() < consumed) throw std::runtime_error("live op stream too short");
  std::vector<WireConn> conns;
  conns.emplace_back(stack->server->port());
  // Mid-stream a reply is checked for shape and order, and an update's ack
  // against the edge set the stream implies; exact answers are checked
  // once the stream is quiet, below.
  RunNominal(
      ctx, kLiveRate, seconds, conns, ops, mix,
      [&](const Op& op, const Reply& reply) {
        if (op.kind != Op::kQuery) {
          return reply.type == kUpdateAckFrame &&
                 reply.outcome == (op.expect_applied ? 1 : 0);
        }
        if (reply.type != kReplyFrame || reply.status != 0 ||
            reply.entries.size() > mix[op.mix].r) {
          return false;
        }
        for (std::size_t i = 1; i < reply.entries.size(); ++i) {
          const auto& a = reply.entries[i - 1];
          const auto& b = reply.entries[i];
          if (a.second < b.second || (a.second == b.second && a.first >= b.first)) {
            return false;
          }
        }
        return true;
      },
      tracer, &e2e);
  conns.clear();
  e2e.peak_rss_mb = PeakRssMb();  // before the reference below is built

  // Quiet state: dynamic TopR and SearchBatch must equal a from-scratch
  // TsdIndex of the final graph.
  std::vector<tsd::BatchQuery> batch;
  for (const Query& q : mix) batch.push_back({q.k, q.r});
  std::vector<Answer> direct, batched;
  std::uint64_t live_edges = 0;
  {
    tsd::QuerySession session;
    for (const Query& q : mix) direct.push_back(ToAnswer(stack->index->TopR(q.r, q.k, session)));
    for (const tsd::TopRResult& r : stack->index->SearchBatch(batch, session)) {
      batched.push_back(ToAnswer(r));
    }
    live_edges = stack->index->graph().num_edges();
  }
  stack.reset();

  EdgeList final_graph = ReadEdgeList(GraphPath(ctx));
  std::set<std::pair<std::uint32_t, std::uint32_t>> edges(final_graph.edges.begin(),
                                                          final_graph.edges.end());
  for (std::size_t i = 0; i < consumed; ++i) {
    const Op& op = ops[i];
    if (op.kind == Op::kQuery || !op.expect_applied) continue;
    const auto key = std::make_pair(std::min(op.u, op.v), std::max(op.u, op.v));
    if (op.kind == Op::kInsert) {
      edges.insert(key);
    } else {
      edges.erase(key);
    }
  }
  std::vector<std::pair<tsd::VertexId, tsd::VertexId>> edge_vector(edges.begin(), edges.end());
  const tsd::Graph graph =
      tsd::Graph::FromEdges(std::move(edge_vector), final_graph.num_vertices);
  const tsd::TsdIndex reference = tsd::TsdIndex::Build(graph);
  tsd::QuerySession session;
  e2e.attempted += 2 * mix.size() + 1;
  if (live_edges != graph.num_edges()) ++e2e.failed;
  for (std::size_t j = 0; j < mix.size(); ++j) {
    const Answer expected = ToAnswer(reference.TopR(mix[j].r, mix[j].k, session));
    if (direct[j] != expected) ++e2e.failed;
    if (batched[j] != expected) ++e2e.failed;
  }
  return e2e;
}

}  // namespace

WireEntries ToWire(const tsd::TopRResult& result) {
  WireEntries out;
  for (const tsd::TopREntry& e : result.entries) out.emplace_back(e.vertex, e.score);
  return out;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "query_online", "query_bound", "query_tsd",
      "query_gct",    "serve_gct",   "live_updates"};
  return names;
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  return rng.Next();
}

std::string GraphPath(const Ctx& ctx) { return ctx.dir + "/graph.txt"; }
std::string SnapshotPath(const Ctx& ctx) { return ctx.dir + "/graph.snap"; }
std::string AnswersPath(const Ctx& ctx) { return ctx.dir + "/answers.txt"; }
std::string OpsPath(const Ctx& ctx) { return ctx.dir + "/ops.txt"; }

bool GenerateInputs(const Ctx& ctx) {
  const GraphShape shape = ctx.workload == "serve_gct" ? kServeGraph : kLargeGraph;
  const EdgeList edges = HolmeKim(shape.n, shape.m, shape.p, SubSeed(ctx.seed, 1));
  WriteEdgeList(edges, GraphPath(ctx));
  std::vector<std::pair<tsd::VertexId, tsd::VertexId>> pairs(edges.edges.begin(),
                                                             edges.edges.end());
  const tsd::Graph graph = tsd::Graph::FromEdges(std::move(pairs), edges.num_vertices);

  if (ctx.workload == "serve_gct") {
    const tsd::GctIndex gct = tsd::GctIndex::Build(graph);
    tsd::SnapshotWriter writer(SnapshotPath(ctx));
    graph.AppendToSnapshot(writer);
    gct.AppendToSnapshot(writer);
    writer.Finish();
    return true;
  }
  if (ctx.workload == "live_updates") {
    // Long enough for the untraced run, and for each half of the traced one.
    WriteOps(LiveOps(edges, NominalRequests(kLiveRate, ctx.seconds), 10,
                     SubSeed(ctx.seed, 2)),
             OpsPath(ctx));
    return true;
  }
  // Reference answers for the direct-query workloads: the two indexes must
  // agree bit for bit; the measured method is then checked against them.
  const tsd::TsdIndex tsd_index = tsd::TsdIndex::Build(graph);
  const tsd::GctIndex gct = tsd::GctIndex::Build(graph);
  tsd::QuerySession session;
  std::vector<Answer> answers;
  bool agree = true;
  for (const Query& q : MethodMix()) {
    answers.push_back(ToAnswer(tsd_index.TopR(q.r, q.k, session)));
    if (ToAnswer(gct.TopR(q.r, q.k, session)) != answers.back()) {
      std::cerr << "reference mismatch: TSD and GCT disagree at k=" << q.k
                << " r=" << q.r << "\n";
      agree = false;
    }
  }
  WriteAnswers(answers, AnswersPath(ctx));
  return agree;
}

E2E RunWorkload(const Ctx& ctx, double seconds, Tracer& tracer) {
  if (ctx.workload == "serve_gct") return RunServeGct(ctx, seconds, tracer);
  if (ctx.workload == "live_updates") return RunLiveUpdates(ctx, seconds, tracer);
  return RunQueryMethod(ctx, seconds, tracer);
}

void AddEndToEndMetrics(const E2E& e2e, MetricSet* metrics) {
  double percentile = 0;
  const double tail = TailValue(e2e.latency_ms, &percentile);
  std::cerr << "  " << e2e.latency_ms.size() << " timed requests; tail = p"
            << percentile << "; p90 " << Quantile(e2e.latency_ms, 0.9) << " p99 "
            << Quantile(e2e.latency_ms, 0.99) << " p99.9 "
            << Quantile(e2e.latency_ms, 0.999) << " ms\n";
  metrics->Set("setup_s", Median(e2e.setup_s), "s");
  metrics->Set("peak_rss_mb", e2e.peak_rss_mb, "MB");
  metrics->Set("p50_ms", Median(e2e.latency_ms), "ms");
  metrics->Set("tail_ms", tail, "ms");
}

}  // namespace perfbench
