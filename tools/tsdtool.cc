// tsdtool — command-line interface to the library.
//
//   tsdtool stats  <edge-list>                     graph + trussness stats
//   tsdtool topr   <edge-list> [--k=3] [--r=10] [--method=gct|tsd|dynamic|
//                                       online|bound|comp|core]
//   tsdtool batch  <edge-list> --k=4,6,8 [--r=10] [--method=gct]
//   tsdtool score  <edge-list> --v=<id> [--k=3]    one vertex + contexts
//   tsdtool build  <edge-list> --out=<snap> [--index=gct|tsd|both]
//   tsdtool query  --index-file=<snap> [--k=3] [--r=10] [--index=gct|tsd]
//   tsdtool gen    --out=<file> [--model=hk|ba|er|rmat] [--n=10000] ...
//   tsdtool serve  <edge-list> --stdin-proto [--method=gct]  query server
//   tsdtool serve  <edge-list> --listen=PORT [--method=gct]  socket server
//   tsdtool client --connect=HOST:PORT [--stats] [--shutdown] socket client
//
// Edge lists are SNAP-style text ("u v" per line, '#' comments). The graph
// commands alternatively take --index=<snapshot> to mmap a file written by
// `build` instead of re-reading and re-indexing the edge list.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/snapshot.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/baselines.h"
#include "core/bound_search.h"
#include "core/dynamic_tsd_index.h"
#include "core/gct_index.h"
#include "core/online_search.h"
#include "core/tsd_index.h"
#include "core/query_pipeline.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "server/live_index.h"
#include "server/sharded_serve.h"
#include "server/socket_proto.h"
#include "server/socket_serve.h"
#include "server/stdin_proto.h"
#include "truss/parallel_truss.h"
#include "truss/truss_decomposition.h"
#include "truss/truss_plan.h"

namespace {

using namespace tsd;

int Usage() {
  std::cerr <<
      "usage: tsdtool <command> [args]\n"
      "  stats <edge-list> [--threads=1] [--plan=auto]\n"
      "                                            graph + trussness stats,\n"
      "                                            plus the plan tuner's\n"
      "                                            input statistics\n"
      "  topr  <edge-list> [--k=3] [--r=10] [--method=gct] [--threads=1]\n"
      "                                            top-r diversity search\n"
      "  batch <edge-list> --k=4,6,8 [--r=10] [--method=gct] [--threads=1]\n"
      "                                            many (k, r) queries in one\n"
      "                                            amortized pass (one ego\n"
      "                                            decomposition per vertex;\n"
      "                                            --r broadcasts or lists\n"
      "                                            per-query values)\n"
      "  score <edge-list> --v=<id> [--k=3]        score + contexts of one "
      "vertex\n"
      "  build <edge-list> --out=<file> [--index=gct|tsd|both] [--threads=1]\n"
      "                                            build graph + index and\n"
      "                                            save one mmap-ready\n"
      "                                            snapshot file\n"
      "  query --index-file=<file> [--index=gct] [--k=3] [--r=10] "
      "[--threads=1]\n"
      "                                            query a saved index\n"
      "  gen   --out=<file> [--model=hk] [--n=10000] [--m-per=5] [--p=0.5] "
      "[--seed=1]\n"
      "                                            generate a synthetic "
      "graph\n"
      "  serve <edge-list> --stdin-proto [--method=gct] [--threads=1]\n"
      "        [--shards=1] [--max-r=1024] [--max-depth=1024] "
      "[--max-batch=64]\n"
      "                                            concurrent query server\n"
      "                                            driven by a line protocol\n"
      "                                            on stdin ('q <tenant> <k>\n"
      "                                            <r>', '+u v' / '-u v'\n"
      "                                            updates with\n"
      "                                            --method=dynamic,\n"
      "                                            'flush'); replies\n"
      "                                            in submission order on\n"
      "                                            stdout, byte-stable at\n"
      "                                            any --threads/--shards.\n"
      "                                            --shards=N runs N\n"
      "                                            consumer loops with\n"
      "                                            tenants hashed across\n"
      "                                            them (deterministic\n"
      "                                            tenant->shard pinning)\n"
      "  serve <edge-list> --listen=PORT [--port-file=<file>] [--bind=ADDR]\n"
      "        [--drain-ms=5000] [--max-outbound=1048576] [...serve flags]\n"
      "                                            the same server over an\n"
      "                                            epoll socket transport\n"
      "                                            (length-prefixed binary\n"
      "                                            frames); PORT 0 picks a\n"
      "                                            free port, printed to\n"
      "                                            stderr and --port-file.\n"
      "                                            Runs until a client sends\n"
      "                                            shutdown (tsdtool client\n"
      "                                            --shutdown)\n"
      "  client --connect=HOST:PORT [--timeout-ms=30000] [--stats|--shutdown]\n"
      "                                            drives the socket server\n"
      "                                            with the same script the\n"
      "                                            stdin protocol reads ('q\n"
      "                                            <tenant> <k> <r>'/'flush',\n"
      "                                            plus 'stats'/'shutdown');\n"
      "                                            transcripts on stdout are\n"
      "                                            byte-identical to\n"
      "                                            --stdin-proto for the\n"
      "                                            same script\n"
      "methods: gct tsd online bound comp core\n"
      "stats/topr/batch/score/serve also take --index=<snapshot>: the graph\n"
      "(and any tsd/gct index the file carries) is mmap-bound zero-copy\n"
      "instead of rebuilt — N processes serving one snapshot share one\n"
      "physical copy through the page cache. The edge-list argument becomes\n"
      "optional; when both are given and the snapshot cannot be loaded (bad\n"
      "version, corruption), a warning goes to stderr and the command falls\n"
      "back to rebuilding from the edge list. Output is byte-identical\n"
      "either way.\n"
      "--threads=N runs the query pipeline on N workers — including the\n"
      "preprocessing stages: the global truss decomposition behind stats and\n"
      "the bound method, triangle counting, and index construction (build).\n"
      "Output is identical at any thread count; --chunks=M tunes load\n"
      "balancing. --threads and --shards accept 1 to "
      << kMaxThreadsFlag << "; an out-of-range\n"
      "value is an error. Results go to stdout, diagnostics to stderr.\n"
      "--plan={auto,bsp,core-truss} picks the truss preprocess (e.g.\n"
      "`tsdtool topr g.txt --method=bound --plan=core-truss`). Every plan\n"
      "runs the same support peel and produces bit-identical output;\n"
      "core-truss adds a core-number prefilter that prunes edges before\n"
      "triangle counting when the bound method needs only the (k+1)-truss,\n"
      "and auto picks it on skewed graphs from the tuner statistics that\n"
      "`stats` prints.\n";
  return 2;
}

void PrintTopR(const TopRResult& result, bool contexts,
               bool with_stats = true) {
  TablePrinter table({"rank", "vertex", "score"});
  for (std::size_t i = 0; i < result.entries.size(); ++i) {
    table.Row(std::uint64_t{i + 1}, std::uint64_t{result.entries[i].vertex},
              std::uint64_t{result.entries[i].score});
  }
  table.Print(std::cout);
  if (contexts) {
    for (const auto& entry : result.entries) {
      std::cout << "vertex " << entry.vertex << " contexts:";
      for (const auto& context : entry.contexts) {
        std::cout << " {";
        for (std::size_t i = 0; i < context.size(); ++i) {
          std::cout << (i ? "," : "") << context[i];
        }
        std::cout << "}";
      }
      std::cout << "\n";
    }
  }
  // Diagnostics go to stderr so the ranked output on stdout is byte-stable
  // across runs and thread counts.
  if (with_stats) {
    std::cerr << "search space: " << result.stats.vertices_scored
              << " vertices, ego edges supported: "
              << result.stats.ego_edges_supported
              << ", edges recounted: " << result.stats.edges_recounted
              << ", threads: " << result.stats.threads_used
              << ", time: " << HumanSeconds(result.stats.total_seconds)
              << "\n";
  }
}

/// The graph a command runs on, plus any indexes that came bound zero-copy
/// from a --index=<snapshot> mapping (null when the snapshot lacks that
/// group or the graph was rebuilt from the edge list).
struct GraphSource {
  Graph graph;
  std::unique_ptr<TsdIndex> tsd;
  std::unique_ptr<GctIndex> gct;
};

/// Resolves the graph for a graph-backed command: the --index=<snapshot>
/// mmap fast path when given (binding whatever indexes the file carries),
/// falling back LOUDLY to the positional edge list when the snapshot cannot
/// be used — a snapshot is a cache, never the source of truth.
GraphSource LoadGraphSource(const Flags& flags) {
  GraphSource source;
  const std::string snap = flags.GetString("index", "");
  const bool have_edge_list = flags.positional().size() >= 2;
  if (!snap.empty()) {
    std::string error;
    SnapshotReader reader;
    WallTimer timer;
    if (SnapshotReader::Open(snap, &reader, &error) &&
        Graph::LoadFromSnapshot(reader, &source.graph, &error)) {
      // Bind whichever index groups the snapshot carries; absence is fine
      // (the file was built with the other --index kind).
      auto tsd = std::make_unique<TsdIndex>();
      if (TsdIndex::LoadFromSnapshot(reader, tsd.get(), nullptr)) {
        source.tsd = std::move(tsd);
      }
      auto gct = std::make_unique<GctIndex>();
      if (GctIndex::LoadFromSnapshot(reader, gct.get(), nullptr)) {
        source.gct = std::move(gct);
      }
      std::cerr << "snapshot: mapped " << HumanBytes(reader.file_size())
                << " from " << snap << " (graph"
                << (source.tsd ? " + tsd" : "")
                << (source.gct ? " + gct" : "") << ") in "
                << HumanSeconds(timer.Seconds()) << "\n";
      return source;
    }
    TSD_CHECK_MSG(have_edge_list,
                  "cannot load snapshot '"
                      << snap << "' (" << error
                      << ") and no edge list was given to rebuild from");
    std::cerr << "warning: cannot load snapshot '" << snap << "': " << error
              << "\nwarning: falling back to rebuild from '"
              << flags.positional()[1] << "'\n";
  }
  TSD_CHECK_MSG(have_edge_list, "this command needs an <edge-list> argument "
                                "or --index=<snapshot>");
  source.graph = LoadEdgeListText(flags.positional()[1]);
  return source;
}

/// A searcher plus the index that may back it, built from --method.
/// `active` is null when the method name is unknown.
struct SearcherHolder {
  std::unique_ptr<DiversitySearcher> searcher;
  std::unique_ptr<TsdIndex> tsd;
  std::unique_ptr<GctIndex> gct;
  /// Live-updatable index (--method=dynamic); the serve command wires its
  /// LiveUpdateApplier into the transports' "+u v" / "-u v" lines.
  std::unique_ptr<DynamicTsdIndex> dynamic;
  DiversitySearcher* active = nullptr;
};

/// Builds the --method searcher, preferring an index already bound from a
/// mapped snapshot (moved out of `source`) over rebuilding it.
SearcherHolder MakeSearcher(GraphSource& source, const std::string& method) {
  const Graph& g = source.graph;
  SearcherHolder holder;
  if (method == "online") {
    holder.searcher = std::make_unique<OnlineSearcher>(g);
  } else if (method == "bound") {
    holder.searcher = std::make_unique<BoundSearcher>(g);
  } else if (method == "tsd") {
    holder.tsd = source.tsd ? std::move(source.tsd)
                            : std::make_unique<TsdIndex>(TsdIndex::Build(g));
  } else if (method == "gct") {
    holder.gct = source.gct ? std::move(source.gct)
                            : std::make_unique<GctIndex>(GctIndex::Build(g));
  } else if (method == "comp") {
    holder.searcher = std::make_unique<CompDivSearcher>(g);
  } else if (method == "core") {
    holder.searcher = std::make_unique<CoreDivSearcher>(g);
  } else if (method == "dynamic") {
    holder.dynamic = std::make_unique<DynamicTsdIndex>(g);
  }
  holder.active = holder.searcher ? holder.searcher.get()
                  : holder.tsd
                      ? static_cast<DiversitySearcher*>(holder.tsd.get())
                  : holder.gct
                      ? static_cast<DiversitySearcher*>(holder.gct.get())
                  : holder.dynamic
                      ? static_cast<DiversitySearcher*>(holder.dynamic.get())
                      : nullptr;
  return holder;
}

/// Parses a comma-separated list of non-negative integers ("4,6,8").
std::vector<std::uint32_t> ParseUintList(const std::string& text) {
  std::vector<std::uint32_t> values;
  std::uint64_t current = 0;
  bool have_digit = false;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == ',') {
      TSD_CHECK_MSG(have_digit, "bad list value: '" << text << "'");
      values.push_back(static_cast<std::uint32_t>(current));
      current = 0;
      have_digit = false;
    } else {
      TSD_CHECK_MSG(text[i] >= '0' && text[i] <= '9',
                    "bad list value: '" << text << "'");
      current = current * 10 + (text[i] - '0');
      TSD_CHECK_MSG(current <= UINT32_MAX,
                    "list value out of range: '" << text << "'");
      have_digit = true;
    }
  }
  return values;
}

/// Lowest accepted values of the query parameters.
constexpr std::uint32_t kMinK = 2;
constexpr std::uint32_t kMinR = 1;

/// Reads an integer query parameter (--k, --r): a value below `min` or
/// above UINT32_MAX throws FlagError, so a negative value cannot wrap into
/// a huge unsigned one.
std::uint32_t ReadQueryParameter(const Flags& flags, const std::string& name,
                                 std::int64_t default_value,
                                 std::uint32_t min) {
  return static_cast<std::uint32_t>(
      flags.GetIntInRange(name, default_value, min, UINT32_MAX));
}

/// Same for a comma-separated list (batch --k, --r); every entry must be in
/// range.
std::vector<std::uint32_t> ReadQueryParameterList(
    const Flags& flags, const std::string& name,
    const std::string& default_value, std::uint32_t min) {
  const std::string text = flags.GetString(name, default_value);
  const auto bad = [&] {
    return FlagError("--" + name + " must be an integer in [" +
                     std::to_string(min) + ", " + std::to_string(UINT32_MAX) +
                     "] (got " + text + ")");
  };
  if (text.find('-') != std::string::npos) throw bad();
  std::vector<std::uint32_t> values = ParseUintList(text);
  for (const std::uint32_t value : values) {
    if (value < min) throw bad();
  }
  return values;
}

int RunStats(const Graph& g, const Flags& flags) {
  const ParallelConfig config = ToParallelConfig(QueryOptionsFromFlags(flags));
  WallTimer decompose_timer;
  TrussDecomposition td(g, config);
  const double decompose_seconds = decompose_timer.Seconds();
  TablePrinter table({"|V|", "|E|", "d_max", "T", "tau*_G"});
  table.Row(WithThousands(g.num_vertices()), WithThousands(g.num_edges()),
            std::uint64_t{g.max_degree()},
            WithThousands(CountTriangles(g, config)),
            std::uint64_t{td.max_trussness()});
  table.Print(std::cout);

  // The auto-tuner's inputs (truss_plan.h). Pure graph properties, so this
  // block — like everything on stdout here — is byte-identical under every
  // --plan; the plan resolution itself is a diagnostic and goes to stderr.
  const GraphStatistics& gs = td.plan_stats().graph_stats;
  std::cout << "\nplan tuner statistics:\n";
  TablePrinter tuner({"density", "avg_deg", "degen<=", "skew"});
  tuner.Row(FormatDouble(gs.density, 6), FormatDouble(gs.average_degree, 2),
            std::uint64_t{gs.degeneracy_bound},
            FormatDouble(gs.degree_skew, 2));
  tuner.Print(std::cout);

  std::cout << "\nedge trussness histogram:\n";
  TablePrinter hist({"trussness", "edges"});
  const auto histogram = td.TrussnessHistogram();
  for (std::uint32_t t = 2; t < histogram.size(); ++t) {
    if (histogram[t] > 0) hist.Row(std::uint64_t{t}, histogram[t]);
  }
  hist.Print(std::cout);

  const TrussPlanStats& ps = td.plan_stats();
  std::cerr << "plan: " << TrussPlanAlgorithmName(ps.requested)
            << " -> " << TrussPlanAlgorithmName(ps.algorithm)
            << (ps.bitmap_kernel ? " (bitmap support kernel)" : "")
            << ", decomposition time: " << HumanSeconds(decompose_seconds)
            << "\n";
  return 0;
}

int RunTopR(GraphSource& source, const Flags& flags) {
  const Graph& g = source.graph;
  const std::uint32_t k = ReadQueryParameter(flags, "k", 3, kMinK);
  const std::uint32_t r = ReadQueryParameter(flags, "r", 10, kMinR);
  const std::string method = flags.GetString("method", "gct");

  // Read the knobs before building an index, so a bad value fails fast.
  const QueryOptions query_options = QueryOptionsFromFlags(flags);
  SearcherHolder holder = MakeSearcher(source, method);
  if (holder.active == nullptr) return Usage();
  holder.active->set_query_options(query_options);
  std::cout << "method: " << holder.active->name() << " k=" << k
            << " r=" << r << "\n";
  PrintTopR(
      holder.active->TopR(std::min<std::uint32_t>(r, g.num_vertices()), k),
      flags.GetBool("contexts", false));
  return 0;
}

int RunBatch(GraphSource& source, const Flags& flags) {
  const Graph& g = source.graph;
  TSD_CHECK_MSG(flags.Has("k"), "batch requires --k=<k1,k2,...>");
  const std::vector<std::uint32_t> ks =
      ReadQueryParameterList(flags, "k", "", kMinK);
  const std::vector<std::uint32_t> rs =
      ReadQueryParameterList(flags, "r", "10", kMinR);
  TSD_CHECK_MSG(rs.size() == 1 || rs.size() == ks.size(),
                "--r must be one value or one per --k entry");

  std::vector<BatchQuery> queries;
  queries.reserve(ks.size());
  for (std::size_t i = 0; i < ks.size(); ++i) {
    BatchQuery query;
    query.k = ks[i];
    query.r = std::min<std::uint32_t>(rs.size() == 1 ? rs[0] : rs[i],
                                      g.num_vertices());
    queries.push_back(query);
  }

  const QueryOptions query_options = QueryOptionsFromFlags(flags);
  SearcherHolder holder = MakeSearcher(source, flags.GetString("method", "gct"));
  if (holder.active == nullptr) return Usage();
  holder.active->set_query_options(query_options);
  std::cout << "method: " << holder.active->name() << " batch of "
            << queries.size() << " queries\n";

  const std::vector<TopRResult> results = holder.active->SearchBatch(queries);
  const bool contexts = flags.GetBool("contexts", false);
  for (std::size_t q = 0; q < results.size(); ++q) {
    std::cout << "\nquery " << q + 1 << ": k=" << queries[q].k
              << " r=" << queries[q].r << "\n";
    PrintTopR(results[q], contexts, /*with_stats=*/false);
  }
  if (!results.empty()) {
    // Amortized searchers stamp every query with the shared per-batch
    // stats; the default per-query loop reports distinct stats, which sum
    // to the batch totals. Print one accurate line either way.
    bool shared = true;
    std::uint64_t scanned = results[0].stats.vertices_scored;
    double seconds = results[0].stats.total_seconds;
    for (std::size_t q = 1; q < results.size(); ++q) {
      shared = shared &&
               results[q].stats.vertices_scored ==
                   results[0].stats.vertices_scored &&
               results[q].stats.total_seconds ==
                   results[0].stats.total_seconds;
      scanned += results[q].stats.vertices_scored;
      seconds += results[q].stats.total_seconds;
    }
    if (shared) {
      scanned = results[0].stats.vertices_scored;
      seconds = results[0].stats.total_seconds;
    }
    std::cerr << "batch search space: " << scanned
              << " vertices, threads: " << results[0].stats.threads_used
              << ", time: " << HumanSeconds(seconds) << "\n";
  }
  return 0;
}

int RunScore(const Graph& g, const Flags& flags) {
  TSD_CHECK_MSG(flags.Has("v"), "score requires --v=<vertex>");
  const auto v = static_cast<VertexId>(flags.GetInt("v", 0));
  const std::uint32_t k = ReadQueryParameter(flags, "k", 3, kMinK);
  TSD_CHECK_MSG(v < g.num_vertices(), "vertex out of range");
  OnlineSearcher online(g);
  const ScoreResult result = online.ScoreVertex(v, k, /*want_contexts=*/true);
  std::cout << "score(" << v << ") at k=" << k << ": " << result.score
            << "\n";
  for (const auto& context : result.contexts) {
    std::cout << "  context (" << context.size() << " members):";
    for (VertexId member : context) std::cout << " " << member;
    std::cout << "\n";
  }
  return 0;
}

int RunBuild(const Graph& g, const Flags& flags) {
  TSD_CHECK_MSG(flags.Has("out"), "build requires --out=<file>");
  const std::string out = flags.GetString("out", "");
  const std::string kind = flags.GetString("index", "gct");
  const bool want_tsd = kind == "tsd" || kind == "both";
  const bool want_gct = kind == "gct" || kind == "both";
  if (!want_tsd && !want_gct) return Usage();
  const std::uint32_t num_threads = QueryOptionsFromFlags(flags).num_threads;

  // One snapshot holds the graph CSR plus the requested index group(s), so
  // stats/topr/serve --index=<out> can run without ever seeing the edge
  // list again.
  SnapshotWriter writer(out);
  g.AppendToSnapshot(writer);
  if (want_tsd) {
    TsdIndex::Options options;
    options.num_threads = num_threads;
    TsdIndex index = TsdIndex::Build(g, options);
    index.AppendToSnapshot(writer);
    std::cout << "TSD index: " << HumanBytes(index.SizeBytes()) << " in "
              << HumanSeconds(index.build_stats().total_seconds) << "\n";
  }
  if (want_gct) {
    GctIndex::Options options;
    options.num_threads = num_threads;
    GctIndex index = GctIndex::Build(g, options);
    index.AppendToSnapshot(writer);
    std::cout << "GCT index: " << HumanBytes(index.SizeBytes()) << " in "
              << HumanSeconds(index.build_stats().total_seconds) << "\n";
  }
  writer.Finish();
  std::cout << "snapshot: graph (" << HumanBytes(g.MemoryBytes()) << ") + "
            << kind << " -> " << out << "\n";
  return 0;
}

int RunQuery(const Flags& flags) {
  TSD_CHECK_MSG(flags.Has("index-file"), "query requires --index-file=<file>");
  const std::string path = flags.GetString("index-file", "");
  const std::string kind = flags.GetString("index", "gct");
  const std::uint32_t k = ReadQueryParameter(flags, "k", 3, kMinK);
  const std::uint32_t r = ReadQueryParameter(flags, "r", 10, kMinR);
  if (kind == "tsd") {
    TsdIndex index = TsdIndex::Load(path);
    index.set_query_options(QueryOptionsFromFlags(flags));
    PrintTopR(index.TopR(std::min<std::uint32_t>(r, index.num_vertices()), k),
              flags.GetBool("contexts", false));
  } else {
    GctIndex index = GctIndex::Load(path);
    index.set_query_options(QueryOptionsFromFlags(flags));
    PrintTopR(index.TopR(std::min<std::uint32_t>(r, index.num_vertices()), k),
              flags.GetBool("contexts", false));
  }
  return 0;
}

/// Per-shard ServeStats as a table — the extra_stats section of the socket
/// server's stats endpoint, and part of the stderr diagnostics.
std::string RenderShardTable(const ShardedServeLoop& loop) {
  std::ostringstream out;
  out << "serve shards\n";
  TablePrinter table({"shard", "accepted", "served", "failed", "rej-r",
                      "rej-depth", "rej-bad", "batches"});
  for (std::uint32_t s = 0; s < loop.num_shards(); ++s) {
    const ServeStats shard = loop.shard_stats(s);
    table.Row(std::uint64_t{s}, shard.accepted, shard.served, shard.failed,
              shard.rejected_r_limit, shard.rejected_queue_depth,
              shard.rejected_bad_query, shard.batches);
  }
  table.Print(out);
  return out.str();
}

/// Serving diagnostics to stderr so the stdout transcript stays byte-stable
/// across thread counts, shard counts, and batch shapes.
void PrintServeDiagnostics(const ShardedServeLoop& loop,
                           const std::string& method, std::uint64_t requests,
                           std::uint64_t parse_errors) {
  const ServeStats stats = loop.stats();
  std::cerr << "serve: method=" << method << " shards=" << loop.num_shards()
            << " requests=" << requests << " parse-errors=" << parse_errors
            << " accepted=" << stats.accepted << " served=" << stats.served
            << " failed=" << stats.failed
            << " rejected(r-limit=" << stats.rejected_r_limit
            << " depth=" << stats.rejected_queue_depth
            << " bad=" << stats.rejected_bad_query
            << ") batches=" << stats.batches << "\n";
  for (std::uint32_t s = 0; s < loop.num_shards(); ++s) {
    const ServeStats shard = loop.shard_stats(s);
    std::cerr << "shard " << s << ": accepted=" << shard.accepted
              << " batches=" << shard.batches << " sizes:";
    for (std::size_t b = 1; b < shard.batch_size_count.size(); ++b) {
      if (shard.batch_size_count[b] > 0) {
        std::cerr << " " << b << "x" << shard.batch_size_count[b];
      }
    }
    std::cerr << "\n";
  }
}

int RunServe(GraphSource& source, const Flags& flags) {
  const bool stdin_proto = flags.GetBool("stdin-proto", false);
  const bool listen = flags.Has("listen");
  if (!stdin_proto && !listen) {
    std::cerr << "serve requires --stdin-proto (line protocol on stdin) or "
                 "--listen=PORT (socket transport)\n";
    return Usage();
  }
  ShardedServeOptions options;
  options.num_shards = static_cast<std::uint32_t>(
      flags.GetIntInRange("shards", 1, 1, kMaxThreadsFlag));
  options.shard.query_options = QueryOptionsFromFlags(flags);
  SearcherHolder holder = MakeSearcher(source, flags.GetString("method", "gct"));
  if (holder.active == nullptr) return Usage();

  options.shard.max_r = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, flags.GetInt("max-r", 1024)));
  options.shard.max_queue_depth = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, flags.GetInt("max-depth", 1024)));
  options.shard.max_batch = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, flags.GetInt("max-batch", 64)));

  ShardedServeLoop loop(*holder.active, options);

  // Live-update sink for "+u v" / "-u v" lines (and kUpdateFrame), present
  // only when the index is dynamic; other methods ack update-unsupported.
  std::unique_ptr<LiveUpdateApplier> updater;
  if (holder.dynamic != nullptr) {
    updater = std::make_unique<LiveUpdateApplier>(*holder.dynamic);
  }

  if (listen) {
    SocketServerOptions server_options;
    server_options.bind_address = flags.GetString("bind", "127.0.0.1");
    server_options.port = static_cast<std::uint16_t>(
        std::max<std::int64_t>(0, flags.GetInt("listen", 0)));
    server_options.drain_timeout_ms = static_cast<std::uint32_t>(
        std::max<std::int64_t>(0, flags.GetInt("drain-ms", 5000)));
    server_options.max_outbound_bytes = static_cast<std::size_t>(
        std::max<std::int64_t>(4096, flags.GetInt("max-outbound", 1 << 20)));
    server_options.extra_stats = [&loop, &updater] {
      std::string text = RenderShardTable(loop);
      if (updater != nullptr) text += "\n" + updater->RenderStatsTables();
      return text;
    };
    server_options.updater = updater.get();

    SocketServer server(loop, server_options);
    server.Start();
    std::cerr << "listening on " << server_options.bind_address << ":"
              << server.port() << "\n";
    if (flags.Has("port-file")) {
      // CI and scripts start us with --listen=0 and read the real port here.
      std::ofstream port_file(flags.GetString("port-file", ""));
      port_file << server.port() << "\n";
    }
    server.WaitUntilShutdown();  // a client's shutdown frame ends the loop
    server.Shutdown();
    loop.Shutdown();

    const SocketServerStats transport = server.stats();
    std::cerr << server.RenderStatsTables();
    PrintServeDiagnostics(loop, holder.active->name(), transport.queries,
                          transport.protocol_errors);
    return 0;
  }

  const StdinProtoStats driver =
      RunStdinProto(std::cin, std::cout, loop, updater.get());
  loop.Shutdown();
  PrintServeDiagnostics(loop, holder.active->name(), driver.requests,
                        driver.parse_errors);
  if (updater != nullptr) std::cerr << updater->RenderStatsTables();
  return 0;
}

int RunClient(const Flags& flags) {
  TSD_CHECK_MSG(flags.Has("connect"), "client requires --connect=HOST:PORT");
  const std::string target = flags.GetString("connect", "");
  const std::size_t colon = target.rfind(':');
  TSD_CHECK_MSG(colon != std::string::npos && colon + 1 < target.size(),
                "--connect wants HOST:PORT, got '" << target << "'");
  const std::string host =
      colon == 0 ? std::string("127.0.0.1") : target.substr(0, colon);
  std::uint64_t port = 0;
  for (std::size_t i = colon + 1; i < target.size(); ++i) {
    const char c = target[i];
    TSD_CHECK_MSG(c >= '0' && c <= '9',
                  "bad port in --connect: '" << target << "'");
    port = port * 10 + static_cast<std::uint64_t>(c - '0');
    TSD_CHECK_MSG(port <= 65535, "bad port in --connect: '" << target << "'");
  }
  TSD_CHECK_MSG(port > 0, "bad port in --connect: '" << target << "'");

  const auto timeout_ms = static_cast<std::uint32_t>(
      std::max<std::int64_t>(0, flags.GetInt("timeout-ms", 30000)));
  SocketClient client =
      SocketClient::Connect(host, static_cast<std::uint16_t>(port), timeout_ms);

  // --stats / --shutdown are one-shot conveniences (CI's smoke job uses
  // them); otherwise the request script comes from stdin.
  const bool stats = flags.GetBool("stats", false);
  const bool shutdown = flags.GetBool("shutdown", false);
  if (stats || shutdown) {
    std::istringstream script(std::string(stats ? "stats\n" : "") +
                              (shutdown ? "shutdown\n" : ""));
    RunSocketClientScript(script, std::cout, client);
    return 0;
  }
  const SocketClientScriptStats driver =
      RunSocketClientScript(std::cin, std::cout, client);
  std::cerr << "client: requests=" << driver.requests
            << " parse-errors=" << driver.parse_errors
            << " server-errors=" << driver.server_errors << "\n";
  return 0;
}

int RunGen(const Flags& flags) {
  TSD_CHECK_MSG(flags.Has("out"), "gen requires --out=<file>");
  const std::string model = flags.GetString("model", "hk");
  const auto n = static_cast<VertexId>(flags.GetInt("n", 10000));
  const auto m_per = static_cast<std::uint32_t>(flags.GetInt("m-per", 5));
  const double p = flags.GetDouble("p", 0.5);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  Graph g;
  if (model == "hk") {
    g = HolmeKim(n, m_per, p, seed);
  } else if (model == "ba") {
    g = BarabasiAlbert(n, m_per, seed);
  } else if (model == "er") {
    g = ErdosRenyi(n, n * m_per, seed);
  } else if (model == "rmat") {
    std::uint32_t scale = 0;
    while ((VertexId{1} << scale) < n) ++scale;
    g = RMat(scale, m_per, 0.45, 0.2, 0.2, seed);
  } else {
    return Usage();
  }
  SaveEdgeListText(g, flags.GetString("out", ""));
  std::cout << "wrote " << g.num_vertices() << " vertices, " << g.num_edges()
            << " edges to " << flags.GetString("out", "") << "\n";
  return 0;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.positional().empty()) return Usage();
  const std::string command = flags.positional()[0];

  try {
    if (command == "query") return RunQuery(flags);
    if (command == "gen") return RunGen(flags);
    if (command == "client") return RunClient(flags);
    if (command == "build") {
      // build interprets --index as the KIND to build (gct|tsd|both), so it
      // always reads the edge list rather than going through LoadGraphSource.
      if (flags.positional().size() < 2) return Usage();
      const Graph g = LoadEdgeListText(flags.positional()[1]);
      return RunBuild(g, flags);
    }
    const bool graph_command = command == "stats" || command == "topr" ||
                               command == "batch" || command == "score" ||
                               command == "serve";
    if (!graph_command) return Usage();
    if (flags.positional().size() < 2 && !flags.Has("index")) return Usage();
    GraphSource source = LoadGraphSource(flags);
    if (command == "stats") return RunStats(source.graph, flags);
    if (command == "topr") return RunTopR(source, flags);
    if (command == "batch") return RunBatch(source, flags);
    if (command == "score") return RunScore(source.graph, flags);
    if (command == "serve") return RunServe(source, flags);
  } catch (const FlagError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const CheckError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
