// Pluggable truss-decomposition kernels behind one plan selector.
//
// Mirrors the KTrussPlan idiom of Katana-style graph engines: callers pick
// an algorithm (or let the auto-tuner pick) and every plan produces
// trussness bit-identical to the sequential Wang–Cheng peel — trussness is
// the unique fixed point of support peeling, so exact equality is the
// specification, and tests/truss_plan_test.cc enforces it differentially.
//
//  * Bsp           — the frontier-parallel peel of truss/parallel_truss.h,
//                    unchanged, as the reference plan.
//  * BspJacobi     — separated edge-removal rounds: the frontier is frozen,
//                    the true surviving support of every touched edge is
//                    recomputed in parallel, then committed. More work per
//                    touched edge than Bsp's decrement bookkeeping, but the
//                    recompute phase is embarrassingly parallel and free of
//                    the per-triangle tie-break, which pays on wide
//                    frontiers.
//  * CoreThenTruss — runs the k-core machinery first and applies the
//                    Burkhardt core-number bound (arXiv:1806.05523): the
//                    k-truss is contained in the (k-1)-core, so
//                    trussness(e) ≤ min(core(u), core(v)) + 1 and every
//                    edge whose bound falls below the requested minimum
//                    trussness is pruned before any triangle counting.
//  * Auto          — picks one of the above from cheap one-pass statistics
//                    (n, m, density, degeneracy estimate, degree skew).
//
// Orthogonally to the peel choice, the support-computation stage may run a
// bitmap triangle kernel (per-vertex adjacency bitmaps + AND-popcount,
// reusing common/bitmap.h) when the graph is dense enough — the same
// density rule the ego decomposer uses, shared here as constants.
//
// min_trussness contract: with min_trussness == 2 (the default) every plan
// computes the full exact decomposition. A caller that only consumes edges
// of trussness ≥ t (e.g. the bound searcher, which sparsifies to the
// (k+1)-truss) may pass min_trussness = t; then CoreThenTruss prunes edges
// whose core bound proves trussness < t and reports them with the trivial
// trussness 2. Reported values are exact for every edge whose true
// trussness is ≥ t, and provably below t (though possibly not exact)
// otherwise.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"

namespace tsd {

/// Cheap one-pass statistics over the degree sequence — the auto-tuner's
/// inputs, also printed by `tsdtool stats` so plan choices are explainable
/// from the CLI.
struct GraphStatistics {
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  /// 2m / (n(n-1)) — fraction of possible edges present.
  double density = 0.0;
  /// 2m / n.
  double average_degree = 0.0;
  std::uint32_t max_degree = 0;
  /// max_degree / average_degree (1 for regular graphs, large for
  /// power-law graphs). 0 on empty graphs.
  double degree_skew = 0.0;
  /// Degree-sequence h-index: the largest h with at least h vertices of
  /// degree ≥ h. Upper-bounds the degeneracy (any subgraph of minimum
  /// degree d has more than d vertices of degree ≥ d in the full graph),
  /// and is computable in one histogram pass, unlike the degeneracy itself.
  std::uint32_t degeneracy_bound = 0;
};

/// One pass over the degree sequence; O(n + max_degree).
GraphStatistics ComputeGraphStatistics(const Graph& graph);

/// A truss-decomposition execution plan: which peel to run plus the
/// minimum trussness the caller will consume (see the contract above).
class TrussPlan {
 public:
  using Algorithm = TrussPlanAlgorithm;

  /// Default plan: auto-tuned, full exact decomposition.
  TrussPlan() = default;

  static TrussPlan Auto(std::uint32_t min_trussness = 2) {
    return TrussPlan(Algorithm::kAuto, min_trussness);
  }
  static TrussPlan Bsp() { return TrussPlan(Algorithm::kBsp, 2); }
  static TrussPlan BspJacobi() { return TrussPlan(Algorithm::kBspJacobi, 2); }
  static TrussPlan CoreThenTruss(std::uint32_t min_trussness = 2) {
    return TrussPlan(Algorithm::kCoreThenTruss, min_trussness);
  }
  /// Plan for a config-carried algorithm tag (how searchers turn their
  /// QueryOptions into a plan, threading through the trussness floor they
  /// actually consume).
  static TrussPlan FromAlgorithm(Algorithm algorithm,
                                 std::uint32_t min_trussness = 2) {
    return TrussPlan(algorithm, min_trussness);
  }

  Algorithm algorithm() const { return algorithm_; }
  std::uint32_t min_trussness() const { return min_trussness_; }

 private:
  TrussPlan(Algorithm algorithm, std::uint32_t min_trussness)
      : algorithm_(algorithm),
        min_trussness_(min_trussness < 2 ? 2 : min_trussness) {}

  Algorithm algorithm_ = Algorithm::kAuto;
  std::uint32_t min_trussness_ = 2;
};

/// How a plan actually executed — resolution of kAuto, the pruning report,
/// and the tuner inputs that drove the choice.
struct TrussPlanStats {
  /// What the caller asked for.
  TrussPlanAlgorithm requested = TrussPlanAlgorithm::kAuto;
  /// What ran (never kAuto).
  TrussPlanAlgorithm algorithm = TrussPlanAlgorithm::kBsp;
  /// Whether supports were computed with the bitmap triangle kernel.
  bool bitmap_kernel = false;
  std::uint32_t min_trussness = 2;
  /// Edges dropped by the CoreThenTruss prefilter before triangle counting
  /// (0 for the other plans, and always 0 when min_trussness == 2).
  std::uint64_t edges_pruned = 0;
  /// KTrussAtFloor only: edges that survive its support cut (support ≥
  /// floor − 2 after any core prune), whose supports it recounts before
  /// the floor peel. 0 on TrussnessWithPlan.
  std::uint64_t edges_recounted = 0;
  /// The auto-tuner inputs (filled for every plan; cheap).
  GraphStatistics graph_stats;
};

/// The auto-tuner: deterministic pure function of the statistics, the
/// consumption floor, and the thread budget. Never returns kAuto.
TrussPlanAlgorithm ChooseTrussPlanAlgorithm(const GraphStatistics& stats,
                                            std::uint32_t min_trussness,
                                            const ParallelConfig& config);

/// Edge trussness of `graph` under `plan`. Bit-identical to
/// PeelSupportToTrussness(graph, ComputeSupport(graph)) for every edge of
/// trussness ≥ plan.min_trussness(), at any thread count and for every
/// plan; with the default min_trussness == 2 that means bit-identical
/// everywhere. Fills `*stats` (optional) with the execution report.
std::vector<std::uint32_t> TrussnessWithPlan(const Graph& graph,
                                             const TrussPlan& plan,
                                             const ParallelConfig& config,
                                             TrussPlanStats* stats = nullptr);

/// CLI spellings: "auto", "bsp", "jacobi", "core-truss".
std::optional<TrussPlanAlgorithm> ParseTrussPlanAlgorithm(
    std::string_view name);
std::string TrussPlanAlgorithmName(TrussPlanAlgorithm algorithm);

namespace internal {

/// The execution report before anything runs: the request, the floor, the
/// tuner inputs, and the resolved algorithm (kAuto goes through
/// ChooseTrussPlanAlgorithm). Shared by TrussnessWithPlan and KTrussAtFloor
/// (truss/k_truss.h), so a plan resolves the same way on both paths.
TrussPlanStats ResolveTrussPlan(const Graph& graph, const TrussPlan& plan,
                                const ParallelConfig& config);

/// What the Burkhardt core prefilter keeps of a graph.
struct CorePrunedGraph {
  /// The surviving edges over the same vertex-id space. Left empty when
  /// nothing is pruned: callers then keep using the input graph.
  Graph graph;
  /// kept_ids[i] is the input id of graph's edge i (empty when nothing is
  /// pruned).
  std::vector<EdgeId> kept_ids;
  std::uint64_t edges_pruned = 0;
};

/// Drops every edge whose Burkhardt bound min(core(u), core(v)) + 1
/// (arXiv:1806.05523) proves its trussness below `floor`. The k-truss lies
/// in the (k-1)-core, so the floor-truss of the result equals the
/// floor-truss of `graph`, and every kept edge of trussness ≥ floor keeps
/// its trussness. The one prefilter behind CoreThenTruss and KTrussAtFloor.
CorePrunedGraph PruneByCoreBound(const Graph& graph, std::uint32_t floor);

/// Scratch budget for the bitmap kernels: n adjacency bitmaps of n bits.
/// Shared with the ego decomposer's default (ego_truss.h).
inline constexpr std::size_t kBitmapBudgetBytes = std::size_t{64} << 20;

/// Density floors for the bitmap kernels, as m ≥ n² >> shift. The ego
/// decomposer's empirical split (m ≥ l²/1024) also credits the bitmap
/// *peeling* phase, which it runs; the global kernel only computes support
/// via AND-popcount — a per-edge cost of ~n/32 words against ~avg-degree
/// for merge intersection — so it demands a much denser graph before the
/// bitmaps win.
inline constexpr unsigned kEgoBitmapDensityShift = 10;     // m ≥ l²/1024
inline constexpr unsigned kGlobalBitmapDensityShift = 6;   // m ≥ n²/64

/// True when n adjacency bitmaps of n bits fit the budget and the graph is
/// dense enough (m ≥ n² >> density_shift) that AND-popcount support beats
/// merge intersection. One predicate shared by the ego decomposer's kAuto
/// rule and the global plan subsystem, with their respective density
/// floors above.
inline bool BitmapSupportEligible(std::uint64_t n, std::uint64_t m,
                                  std::size_t budget_bytes,
                                  unsigned density_shift) {
  if (n < 3 || m == 0) return false;
  const bool fits = n * n / 8 <= budget_bytes;
  const bool dense_enough = m >= (n * n) >> density_shift;
  return fits && dense_enough;
}

/// Edge supports via per-vertex adjacency bitmaps + AND-popcount. Equals
/// ComputeSupport(graph) bit-for-bit; only sensible when
/// BitmapSupportEligible holds.
std::vector<std::uint32_t> SupportViaBitmaps(const Graph& graph,
                                             const ParallelConfig& config);

}  // namespace internal
}  // namespace tsd
