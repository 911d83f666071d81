// Truss-decomposition plans behind one selector.
//
// Mirrors the KTrussPlan idiom of Katana-style graph engines: callers pick
// a plan (or let the auto-tuner pick), and every plan runs the same global
// peel — support counting, then TrussnessFromSupport (truss/parallel_truss.h)
// — so trussness is bit-identical to the sequential Wang–Cheng peel under
// every plan and thread count. tests/truss_plan_test.cc enforces it
// differentially.
//
//  * Bsp           — the frontier-parallel peel alone.
//  * CoreThenTruss — adds the Burkhardt core-number prefilter
//                    (arXiv:1806.05523): the k-truss is contained in the
//                    (k-1)-core, so trussness(e) ≤ min(core(u), core(v)) + 1
//                    and KTrussAtFloor (truss/k_truss.h) drops every edge
//                    whose bound falls below its floor before any triangle
//                    counting. A full decomposition has floor 2, where the
//                    bound prunes nothing.
//  * Auto          — picks one of the above from cheap one-pass statistics
//                    (degree skew) and the floor.
//
// The floor lives only in KTrussAtFloor, which passes it to ResolveTrussPlan
// and PruneByCoreBound; a plan carries no floor of its own.
//
// Orthogonally to the plan, the support stage may run a bitmap triangle
// kernel (per-vertex adjacency bitmaps + AND-popcount, reusing
// common/bitmap.h) when the graph is dense enough — the same density rule
// the ego decomposer uses, shared here as constants.
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

/// A truss-decomposition plan: whether the floor-truss kernel runs the core
/// prefilter (see the top of this file).
class TrussPlan {
 public:
  using Algorithm = TrussPlanAlgorithm;

  /// Default plan: auto-tuned.
  TrussPlan() = default;

  static TrussPlan Auto() { return TrussPlan(Algorithm::kAuto); }
  static TrussPlan Bsp() { return TrussPlan(Algorithm::kBsp); }
  static TrussPlan CoreThenTruss() {
    return TrussPlan(Algorithm::kCoreThenTruss);
  }
  /// Plan for a config-carried algorithm tag (how searchers turn their
  /// QueryOptions into a plan).
  static TrussPlan FromAlgorithm(Algorithm algorithm) {
    return TrussPlan(algorithm);
  }

  Algorithm algorithm() const { return algorithm_; }

 private:
  explicit TrussPlan(Algorithm algorithm) : algorithm_(algorithm) {}

  Algorithm algorithm_ = Algorithm::kAuto;
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
  /// Edges dropped by the core prefilter before triangle counting
  /// (KTrussAtFloor under CoreThenTruss only; 0 everywhere else).
  std::uint64_t edges_pruned = 0;
  /// KTrussAtFloor only: edges that survive its support cut (support ≥
  /// floor − 2 after any core prune), whose supports it recounts before
  /// the floor peel. 0 on TrussnessWithPlan.
  std::uint64_t edges_recounted = 0;
  /// The auto-tuner inputs (filled for every plan; cheap).
  GraphStatistics graph_stats;
};

/// The auto-tuner: deterministic pure function of the statistics and the
/// trussness floor the caller consumes. Never returns kAuto.
TrussPlanAlgorithm ChooseTrussPlanAlgorithm(const GraphStatistics& stats,
                                            std::uint32_t floor);

/// Edge trussness of `graph`: support counting, then TrussnessFromSupport.
/// Bit-identical to PeelSupportToTrussness(graph, ComputeSupport(graph)) at
/// any thread count and under every plan, which only shows in `*stats`
/// (optional, the execution report).
std::vector<std::uint32_t> TrussnessWithPlan(const Graph& graph,
                                             const TrussPlan& plan,
                                             const ParallelConfig& config,
                                             TrussPlanStats* stats = nullptr);

/// CLI spellings: "auto", "bsp", "core-truss".
std::optional<TrussPlanAlgorithm> ParseTrussPlanAlgorithm(
    std::string_view name);
std::string TrussPlanAlgorithmName(TrussPlanAlgorithm algorithm);

namespace internal {

/// The execution report before anything runs: the request, the tuner
/// inputs, and the resolved algorithm (kAuto goes through
/// ChooseTrussPlanAlgorithm at `floor`). Shared by TrussnessWithPlan (floor
/// 2) and KTrussAtFloor (truss/k_truss.h), so a plan resolves the same way
/// on both paths.
TrussPlanStats ResolveTrussPlan(const Graph& graph, const TrussPlan& plan,
                                std::uint32_t floor);

/// What the Burkhardt core prefilter keeps of a graph.
struct CorePrunedGraph {
  /// The surviving edges over the same vertex-id space, in input order.
  /// Left empty when nothing is pruned: callers then keep using the input
  /// graph.
  Graph graph;
  std::uint64_t edges_pruned = 0;
};

/// Drops every edge whose Burkhardt bound min(core(u), core(v)) + 1
/// (arXiv:1806.05523) proves its trussness below `floor`. The k-truss lies
/// in the (k-1)-core, so the floor-truss of the result equals the
/// floor-truss of `graph`, and every kept edge of trussness ≥ floor keeps
/// its trussness. The prefilter KTrussAtFloor runs under CoreThenTruss.
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
