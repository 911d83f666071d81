// Shared plumbing for the paper-reproduction benchmark binaries.
//
// Every binary runs with no arguments at the "small" scale (seconds per
// binary) and accepts --scale=tiny|small|large (or env TSD_BENCH_SCALE) plus
// experiment-specific flags. Output is the paper's corresponding table or
// figure series rendered as an aligned text table.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/query_pipeline.h"  // QueryOptionsFromFlags: --threads/--chunks
#include "graph/datasets.h"
#include "graph/graph.h"
#include "graph/triangle.h"
#include "truss/truss_decomposition.h"

namespace tsd::bench {

/// Prints the experiment banner: what paper artifact this reproduces and at
/// what scale.
inline void PrintHeader(const std::string& artifact,
                        const std::string& description,
                        const std::string& scale) {
  std::cout << "==================================================\n"
            << artifact << " — " << description << "\n"
            << "scale: " << scale
            << " (synthetic stand-ins for the paper's datasets; see "
               "src/graph/datasets.h)\n"
            << "==================================================\n";
}

/// Prints the Table 1 style statistics row block for the given datasets.
inline void PrintNetworkStatistics(const std::vector<std::string>& names,
                                   const std::string& scale) {
  TablePrinter table({"Name", "|V|", "|E|", "d_max", "tau*_G", "T"});
  for (const auto& name : names) {
    const Graph g = MakeDataset(name, scale);
    TrussDecomposition td(g);
    table.Row(name, WithThousands(g.num_vertices()),
              WithThousands(g.num_edges()), std::uint64_t{g.max_degree()},
              std::uint64_t{td.max_trussness()},
              WithThousands(CountTriangles(g)));
  }
  table.Print(std::cout);
}

/// Datasets exercised by default at each scale. The paper's largest graphs
/// are only worth generating at --scale=large.
inline std::vector<std::string> BenchDatasets(const std::string& scale) {
  if (scale == "tiny") {
    return {"wiki-vote", "email-enron"};
  }
  return DatasetNames();  // all eight
}

}  // namespace tsd::bench
