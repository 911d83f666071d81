// TrussPlan comparison: per-plan time for the full exact decomposition,
// then, at one trussness floor, the single-floor peel (KTrussAtFloor, what
// the bound searcher runs). Every plan's full decomposition is verified
// bit-identical to Bsp's before its row prints, and the floor peel's edge
// set is verified equal to Bsp's floor-truss, so the tables can be read as
// a pure performance comparison.
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "truss/k_truss.h"
#include "truss/truss_plan.h"

namespace {

using namespace tsd;

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string scale = flags.BenchScale();
  bench::PrintHeader("TrussPlan kernels",
                     "one peel + core-based prefiltering", scale);

  const std::string dataset = flags.GetString("dataset", "gowalla");
  const Graph g = MakeDataset(dataset, scale);
  std::cout << dataset << ": |V|=" << WithThousands(g.num_vertices())
            << " |E|=" << WithThousands(g.num_edges()) << "\n\n";

  const GraphStatistics gs = ComputeGraphStatistics(g);
  std::cout << "tuner stats: avg_deg=" << FormatDouble(gs.average_degree, 2)
            << " skew=" << FormatDouble(gs.degree_skew, 2)
            << " degen<=" << gs.degeneracy_bound << "\n\n";

  // Full exact decomposition under every plan. Every plan runs the same
  // support count and peel here (the core prefilter only prunes above floor
  // 2), so the rows differ by noise alone.
  const std::uint32_t threads =
      static_cast<std::uint32_t>(
          flags.GetIntInRange("threads", 4, 1, kMaxThreadsFlag));
  std::cout << "Full decomposition (" << threads << " threads):\n";
  TablePrinter full({"plan", "resolved", "kernel", "time"});
  const ParallelConfig config{threads, 0};
  std::vector<std::uint32_t> reference;
  for (const TrussPlanAlgorithm algorithm :
       {TrussPlanAlgorithm::kBsp, TrussPlanAlgorithm::kCoreThenTruss,
        TrussPlanAlgorithm::kAuto}) {
    TrussPlanStats stats;
    WallTimer timer;
    const std::vector<std::uint32_t> trussness =
        TrussnessWithPlan(g, TrussPlan::FromAlgorithm(algorithm), config,
                          &stats);
    const double seconds = timer.Seconds();
    if (reference.empty()) {
      reference = trussness;
    } else if (trussness != reference) {
      std::cerr << "FATAL: plan " << TrussPlanAlgorithmName(algorithm)
                << " diverged from bsp\n";
      return 1;
    }
    full.Row(TrussPlanAlgorithmName(algorithm),
             TrussPlanAlgorithmName(stats.algorithm),
             stats.bitmap_kernel ? "bitmap" : "merge", HumanSeconds(seconds));
  }
  full.Print(std::cout);

  // The floor peel skips the decomposition altogether: it returns the
  // floor-truss itself, under the default (auto) plan a query would use,
  // which on skewed graphs runs the core prefilter first.
  const std::uint32_t floor_k =
      static_cast<std::uint32_t>(flags.GetInt("min-trussness", 10));
  std::cout << "\nFloor peel (floor=" << floor_k << ", 1 thread):\n";
  TrussPlanStats floor_stats;
  WallTimer floor_timer;
  const Graph floor_truss =
      KTrussAtFloor(g, floor_k, ParallelConfig{1, 0}, &floor_stats);
  const double floor_seconds = floor_timer.Seconds();
  const std::vector<EdgeId> expected = KTrussEdges(g, reference, floor_k);
  bool floor_equal = floor_truss.num_edges() == expected.size();
  for (std::size_t i = 0; floor_equal && i < expected.size(); ++i) {
    floor_equal = floor_truss.edge(static_cast<EdgeId>(i)) ==
                  g.edge(expected[i]);
  }
  if (!floor_equal) {
    std::cerr << "FATAL: floor peel diverged from bsp's " << floor_k
              << "-truss\n";
    return 1;
  }

  TablePrinter floor_table(
      {"plan", "edges pruned", "pruned %", "edges recounted", "time"});
  floor_table.Row(
      "floor peel (" + TrussPlanAlgorithmName(floor_stats.algorithm) + ")",
      floor_stats.edges_pruned,
      FormatDouble(100.0 * static_cast<double>(floor_stats.edges_pruned) /
                       static_cast<double>(g.num_edges()),
                   1),
      floor_stats.edges_recounted, HumanSeconds(floor_seconds));
  floor_table.Print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
