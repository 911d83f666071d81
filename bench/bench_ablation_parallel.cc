// Ablation (extension beyond the paper): parallel index construction and
// parallel global truss decomposition. Per-vertex index work is
// independent, so TSD/GCT builds scale with cores, and the global
// decomposition (the bound search's preprocess) scales via the
// frontier-parallel peel; results are bit-identical to the sequential
// kernels (verified by tests). Also reports dynamic TSD maintenance
// throughput (the Section 5.3 future-work extension): edge updates
// repaired per second vs. the cost of a full rebuild.
#include <cstdint>
#include <iostream>

#include "bench_common.h"
#include "common/rng.h"
#include "core/dynamic_tsd_index.h"
#include "core/gct_index.h"
#include "core/tsd_index.h"
#include "truss/truss_decomposition.h"

namespace {

using namespace tsd;

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string scale = flags.BenchScale();
  bench::PrintHeader("Ablation (extension)",
                     "parallel index build + dynamic maintenance", scale);

  const std::string dataset = flags.GetString("dataset", "gowalla");
  const Graph g = MakeDataset(dataset, scale);
  std::cout << dataset << ": |V|=" << WithThousands(g.num_vertices())
            << " |E|=" << WithThousands(g.num_edges()) << "\n\n";

  TablePrinter table({"threads", "TSD build", "GCT build", "global truss"});
  double tsd_single = 0;
  for (std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    TsdIndex::Options tsd_options;
    tsd_options.num_threads = threads;
    GctIndex::Options gct_options;
    gct_options.num_threads = threads;
    WallTimer tsd_timer;
    TsdIndex tsd = TsdIndex::Build(g, tsd_options);
    const double tsd_seconds = tsd_timer.Seconds();
    if (threads == 1) tsd_single = tsd_seconds;
    WallTimer gct_timer;
    GctIndex gct = GctIndex::Build(g, gct_options);
    const double gct_seconds = gct_timer.Seconds();
    WallTimer truss_timer;
    TrussDecomposition truss(g, ParallelConfig{threads, 0});
    const double truss_seconds = truss_timer.Seconds();
    table.Row(std::uint64_t{threads}, HumanSeconds(tsd_seconds),
              HumanSeconds(gct_seconds), HumanSeconds(truss_seconds));
  }
  table.Print(std::cout);

  // Dynamic maintenance: random insert/delete stream.
  const std::uint32_t updates =
      static_cast<std::uint32_t>(flags.GetInt("updates", 200));
  DynamicTsdIndex dynamic(g);
  Rng rng(7);
  WallTimer update_timer;
  std::uint32_t applied = 0;
  for (std::uint32_t i = 0; i < updates; ++i) {
    const auto u = static_cast<VertexId>(rng.Uniform(g.num_vertices()));
    const auto v = static_cast<VertexId>(rng.Uniform(g.num_vertices()));
    if (u == v) continue;
    if (dynamic.graph().HasEdge(u, v)) {
      applied += dynamic.RemoveEdge(u, v) ? 1 : 0;
    } else {
      applied += dynamic.InsertEdge(u, v) ? 1 : 0;
    }
  }
  const double update_seconds = update_timer.Seconds();
  std::cout << "\nDynamic TSD maintenance: " << applied << " updates in "
            << HumanSeconds(update_seconds) << " ("
            << FormatDouble(applied / update_seconds, 0) << "/s, "
            << dynamic.rebuild_count() << " ego rebuilds)\n"
            << "Full rebuild for comparison:  " << HumanSeconds(tsd_single)
            << " — amortized update cost is "
            << FormatDouble(tsd_single / (update_seconds / applied), 0)
            << "x cheaper than rebuilding.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
