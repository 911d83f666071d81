// Table 5 + Exp-10/11: the DBLP case study, on the synthetic collaboration
// network (overlapping research groups with planted prolific hub authors —
// see Collaboration() in src/graph/generators.h).
//
// Section 1 reproduces Exp-10/11: the top-1 author under Truss-Div, Comp-Div
// and Core-Div at k=5, r=1, with the decomposition of each winner's
// ego-network (the paper's point: the truss model decomposes ego-networks
// that the component and core models see as one blob or as few isolated
// contexts).
//
// Section 2 reproduces Table 5: ego-network statistics of each model's
// top-1 answer — |V|, |E|, density, |SC(v)|, and the activation probability
// of the center under IC with p = 0.05 and 10 random neighbor seeds.
#include <cstdint>
#include <iostream>

#include "bench_common.h"
#include "core/baselines.h"
#include "core/gct_index.h"
#include "core/online_search.h"
#include "graph/generators.h"
#include "influence/contagion_experiments.h"

namespace {

using namespace tsd;

struct Top1 {
  VertexId vertex;
  std::uint32_t score;
  std::vector<SocialContext> contexts;
};

Top1 TakeTop1(const TopRResult& result) {
  return {result.entries[0].vertex, result.entries[0].score,
          result.entries[0].contexts};
}

void DescribeEgo(const Graph& g, const Top1& top, const std::string& model) {
  EgoNetworkExtractor extractor(g);
  EgoNetwork ego = extractor.Extract(top.vertex);
  const double density =
      ego.num_members() > 0
          ? static_cast<double>(ego.num_edges()) / ego.num_members()
          : 0;
  std::cout << "\n" << model << ": top-1 author = " << top.vertex
            << ", score = " << top.score << "\n"
            << "  ego-network: |V|=" << ego.num_members()
            << " |E|=" << ego.num_edges()
            << " density=" << FormatDouble(density, 2) << "\n";
  std::cout << "  social contexts (sizes):";
  for (const auto& context : top.contexts) {
    std::cout << " " << context.size();
  }
  std::cout << "\n";
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string scale = flags.BenchScale();
  const auto k = static_cast<std::uint32_t>(flags.GetInt("k", 5));
  const auto runs = static_cast<std::uint32_t>(flags.GetInt("runs", 10000));
  bench::PrintHeader("Table 5 / Exp-10/11",
                     "collaboration-network case study", scale);

  CollaborationOptions options;
  if (scale == "tiny") {
    options.num_authors = 2000;
    options.num_groups = 150;
  } else if (scale == "large") {
    options.num_authors = 234879;  // paper's DBLP size
    options.num_groups = 20000;
  } else {
    options.num_authors = 30000;
    options.num_groups = 2500;
  }
  const CollaborationGraph collab = Collaboration(options, 2026);
  const Graph& g = collab.graph;
  std::cout << "collaboration network: |V|=" << WithThousands(g.num_vertices())
            << " |E|=" << WithThousands(g.num_edges()) << " k=" << k
            << " r=1\n";

  GctIndex gct = GctIndex::Build(g);
  CompDivSearcher comp(g);
  CoreDivSearcher core(g);

  const Top1 truss_top = TakeTop1(gct.TopR(1, k));
  const Top1 comp_top = TakeTop1(comp.TopR(1, k));
  const Top1 core_top = TakeTop1(core.TopR(1, k));

  PrintBanner("Exp-10/11: top-1 ego-network decomposition per model");
  DescribeEgo(g, truss_top, "Truss-Div");
  DescribeEgo(g, comp_top, "Comp-Div");
  DescribeEgo(g, core_top, "Core-Div");

  // How the other models see the Truss-Div winner's ego-network (Exp-10's
  // point: comp = one blob, core = merged contexts).
  OnlineSearcher online(g);
  EgoNetworkExtractor extractor(g);
  EgoNetwork hub_ego = extractor.Extract(truss_top.vertex);
  const ScoreResult comp_on_hub = ScoreComponents(hub_ego, k, true);
  const ScoreResult core_on_hub = ScoreKCores(hub_ego, k - 1, true);
  std::cout << "\nOn the Truss-Div winner's ego-network:\n"
            << "  Comp-Div sees " << comp_on_hub.score
            << " context(s); Core-Div (k-1 core) sees " << core_on_hub.score
            << " context(s); Truss-Div sees " << truss_top.score << ".\n";

  PrintBanner("Table 5: ego-network statistics of top-1 results");
  TablePrinter table({"Method", "Author", "|V|(ego)", "|E|(ego)", "Density",
                      "|SC(v)|", "Activated Prob."});
  struct RowSpec {
    const char* method;
    const Top1* top;
  };
  for (const RowSpec& spec :
       {RowSpec{"Comp-Div", &comp_top}, RowSpec{"Core-Div", &core_top},
        RowSpec{"Truss-Div", &truss_top}}) {
    EgoNetwork ego = extractor.Extract(spec.top->vertex);
    const double density =
        ego.num_members() > 0
            ? static_cast<double>(ego.num_edges()) / ego.num_members()
            : 0;
    const double activated = CenterActivationProbability(
        g, spec.top->vertex, /*num_seeds=*/10, /*probability=*/0.05, runs,
        /*seed=*/5);
    table.Row(spec.method, std::uint64_t{spec.top->vertex},
              std::uint64_t{ego.num_members()}, std::uint64_t{ego.num_edges()},
              FormatDouble(density, 2), std::uint64_t{spec.top->score},
              FormatDouble(activated, 2));
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape (paper): the Truss-Div winner has the "
               "densest ego-network, several\nbalanced contexts, and the "
               "highest center activation probability.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
