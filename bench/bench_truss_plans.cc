// TrussPlan comparison: per-plan preprocess (decomposition) time for the
// full exact decomposition, then, at one trussness floor, the CoreThenTruss
// prefilter and the single-floor peel (KTrussAtFloor, what the bound
// searcher runs) against the Bsp baseline. Every plan's full decomposition
// is verified bit-identical to Bsp's before its row prints, the thresholded
// run is verified exact on every edge at or above the floor, and the floor
// peel's edge set is verified equal to Bsp's floor-truss, so the tables can
// be read as a pure performance comparison.
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
                     "pluggable peels + core-based prefiltering", scale);

  const std::string dataset = flags.GetString("dataset", "gowalla");
  const Graph g = MakeDataset(dataset, scale);
  std::cout << dataset << ": |V|=" << WithThousands(g.num_vertices())
            << " |E|=" << WithThousands(g.num_edges()) << "\n\n";

  const GraphStatistics gs = ComputeGraphStatistics(g);
  std::cout << "tuner stats: avg_deg=" << FormatDouble(gs.average_degree, 2)
            << " skew=" << FormatDouble(gs.degree_skew, 2)
            << " degen<=" << gs.degeneracy_bound << "\n\n";

  // Full exact decomposition (min_trussness = 2) under every plan. At this
  // floor CoreThenTruss prunes nothing (every edge endpoint has core ≥ 1),
  // so its row measures the prefilter's pure overhead.
  const std::uint32_t threads =
      static_cast<std::uint32_t>(flags.GetInt("threads", 4));
  std::cout << "Full decomposition (" << threads << " threads):\n";
  TablePrinter full({"plan", "resolved", "kernel", "time"});
  const ParallelConfig config{threads, 0};
  std::vector<std::uint32_t> reference;
  for (const TrussPlanAlgorithm algorithm :
       {TrussPlanAlgorithm::kBsp, TrussPlanAlgorithm::kBspJacobi,
        TrussPlanAlgorithm::kCoreThenTruss, TrussPlanAlgorithm::kAuto}) {
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

  // Thresholded preprocess at 1 thread (the acceptance comparison): a
  // caller that only consumes the k-truss — the bound searcher sparsifying
  // to the (k+1)-truss — passes min_trussness = k, and the core prefilter
  // drops every edge whose Burkhardt bound proves it irrelevant before any
  // triangle counting happens.
  const std::uint32_t floor_k =
      static_cast<std::uint32_t>(flags.GetInt("min-trussness", 10));
  std::cout << "\nThresholded preprocess (min_trussness=" << floor_k
            << ", 1 thread):\n";
  const ParallelConfig single{1, 0};

  WallTimer bsp_timer;
  const std::vector<std::uint32_t> bsp_trussness =
      TrussnessWithPlan(g, TrussPlan::Bsp(), single);
  const double bsp_seconds = bsp_timer.Seconds();

  TrussPlanStats core_stats;
  WallTimer core_timer;
  const std::vector<std::uint32_t> core_trussness = TrussnessWithPlan(
      g, TrussPlan::CoreThenTruss(floor_k), single, &core_stats);
  const double core_seconds = core_timer.Seconds();

  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (bsp_trussness[e] >= floor_k &&
        core_trussness[e] != bsp_trussness[e]) {
      std::cerr << "FATAL: core-truss diverged from bsp at edge " << e
                << " (trussness " << bsp_trussness[e] << " above the floor)\n";
      return 1;
    }
  }

  // The floor peel skips the decomposition altogether: it returns the
  // floor-truss itself, under the default (auto) plan a query would use.
  TrussPlanStats floor_stats;
  WallTimer floor_timer;
  const Graph floor_truss = KTrussAtFloor(g, floor_k, single, &floor_stats);
  const double floor_seconds = floor_timer.Seconds();
  const std::vector<EdgeId> expected = KTrussEdges(g, bsp_trussness, floor_k);
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

  auto pruned_percent = [&](std::uint64_t pruned) {
    return FormatDouble(100.0 * static_cast<double>(pruned) /
                            static_cast<double>(g.num_edges()),
                        1);
  };
  TablePrinter thresholded({"plan", "edges pruned", "pruned %", "time"});
  thresholded.Row("bsp", std::uint64_t{0}, pruned_percent(0),
                  HumanSeconds(bsp_seconds));
  thresholded.Row("core-truss", core_stats.edges_pruned,
                  pruned_percent(core_stats.edges_pruned),
                  HumanSeconds(core_seconds));
  thresholded.Row(
      "floor peel (" + TrussPlanAlgorithmName(floor_stats.algorithm) + ")",
      floor_stats.edges_pruned, pruned_percent(floor_stats.edges_pruned),
      HumanSeconds(floor_seconds));
  thresholded.Print(std::cout);
  std::cout << "core-truss is "
            << FormatDouble(bsp_seconds / core_seconds, 2)
            << "x and the floor peel "
            << FormatDouble(bsp_seconds / floor_seconds, 2)
            << "x the bsp baseline's speed at this floor.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
