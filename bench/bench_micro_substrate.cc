// google-benchmark micro suite for the substrate kernels and their
// ablations: triangle listing, global truss peeling, k-core peeling,
// per-vertex vs one-shot ego extraction, hash vs bitmap ego decomposition,
// TSD/GCT score queries, and union-find throughput.
#include <benchmark/benchmark.h>

#include <map>

#include "common/disjoint_set.h"
#include "core/gct_index.h"
#include "core/tsd_index.h"
#include "graph/ego_network.h"
#include "graph/generators.h"
#include "truss/core_decomposition.h"
#include "truss/ego_truss.h"
#include "graph/triangle.h"
#include "truss/truss_decomposition.h"

namespace {

using namespace tsd;

const Graph& TestGraph(int scale_exp) {
  static std::map<int, Graph>* graphs = new std::map<int, Graph>();
  auto it = graphs->find(scale_exp);
  if (it == graphs->end()) {
    const VertexId n = VertexId{1} << scale_exp;
    it = graphs->emplace(scale_exp, HolmeKim(n, 6, 0.5, 7)).first;
  }
  return it->second;
}

void BM_TriangleListing(benchmark::State& state) {
  const Graph& g = TestGraph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountTriangles(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_TriangleListing)->Arg(12)->Arg(14);

void BM_TrussDecomposition(benchmark::State& state) {
  const Graph& g = TestGraph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    TrussDecomposition td(g);
    benchmark::DoNotOptimize(td.max_trussness());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_TrussDecomposition)->Arg(12)->Arg(14);

void BM_CoreDecomposition(benchmark::State& state) {
  const Graph& g = TestGraph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    CoreDecomposition cd(g);
    benchmark::DoNotOptimize(cd.max_core());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_CoreDecomposition)->Arg(12)->Arg(14);

void BM_EgoExtractionPerVertex(benchmark::State& state) {
  const Graph& g = TestGraph(12);
  EgoNetworkExtractor extractor(g);
  EgoNetwork ego;
  for (auto _ : state) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      extractor.ExtractInto(v, &ego);
      benchmark::DoNotOptimize(ego.num_edges());
    }
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_EgoExtractionPerVertex);

void BM_EgoExtractionGlobalOneShot(benchmark::State& state) {
  const Graph& g = TestGraph(12);
  EgoNetwork ego;
  for (auto _ : state) {
    GlobalEgoNetworks global(g);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      global.MaterializeInto(v, &ego);
      benchmark::DoNotOptimize(ego.num_edges());
    }
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_EgoExtractionGlobalOneShot);

void EgoDecompositionLoop(benchmark::State& state, EgoTrussMethod method) {
  const Graph& g = TestGraph(12);
  EgoNetworkExtractor extractor(g);
  EgoTrussDecomposer decomposer(method);
  EgoNetwork ego;
  for (auto _ : state) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      extractor.ExtractInto(v, &ego);
      benchmark::DoNotOptimize(decomposer.Compute(ego));
    }
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}

void BM_EgoTrussHash(benchmark::State& state) {
  EgoDecompositionLoop(state, EgoTrussMethod::kHash);
}
BENCHMARK(BM_EgoTrussHash);

void BM_EgoTrussBitmap(benchmark::State& state) {
  EgoDecompositionLoop(state, EgoTrussMethod::kBitmap);
}
BENCHMARK(BM_EgoTrussBitmap);

void BM_TsdIndexBuild(benchmark::State& state) {
  const Graph& g = TestGraph(12);
  for (auto _ : state) {
    TsdIndex index = TsdIndex::Build(g);
    benchmark::DoNotOptimize(index.SizeBytes());
  }
}
BENCHMARK(BM_TsdIndexBuild);

void BM_GctIndexBuild(benchmark::State& state) {
  const Graph& g = TestGraph(12);
  for (auto _ : state) {
    GctIndex index = GctIndex::Build(g);
    benchmark::DoNotOptimize(index.SizeBytes());
  }
}
BENCHMARK(BM_GctIndexBuild);

void BM_TsdScoreQuery(benchmark::State& state) {
  const Graph& g = TestGraph(12);
  static TsdIndex* index = new TsdIndex(TsdIndex::Build(g));
  VertexId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->Score(v, 4));
    v = (v + 1) % g.num_vertices();
  }
}
BENCHMARK(BM_TsdScoreQuery);

void BM_GctScoreQuery(benchmark::State& state) {
  const Graph& g = TestGraph(12);
  static GctIndex* index = new GctIndex(GctIndex::Build(g));
  VertexId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->Score(v, 4));
    v = (v + 1) % g.num_vertices();
  }
}
BENCHMARK(BM_GctScoreQuery);

void BM_DisjointSetUnionFind(benchmark::State& state) {
  const std::uint32_t n = 1 << 16;
  for (auto _ : state) {
    DisjointSet dsu(n);
    for (std::uint32_t i = 0; i + 1 < n; i += 2) dsu.Union(i, i + 1);
    for (std::uint32_t i = 0; i + 3 < n; i += 4) dsu.Union(i, i + 2);
    benchmark::DoNotOptimize(dsu.NumSets());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DisjointSetUnionFind);

}  // namespace

BENCHMARK_MAIN();
