// Synthetic graph generators.
//
// The paper evaluates on SNAP/KONECT social networks plus power-law graphs
// from the PythonWeb generator. Those datasets cannot be downloaded in this
// environment, so the benchmark suite runs on deterministic synthetic
// stand-ins produced here. The key structural properties the experiments
// depend on — power-law degree distributions, high triangle density, a
// heavy-tailed edge-trussness distribution, and truss-decomposable
// ego-networks — are reproduced by the Holme–Kim (power-law cluster) and
// planted-community generators below; datasets.h maps each paper dataset
// to its recipe.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace tsd {

/// G(n, m) Erdős–Rényi: m distinct uniform random edges.
Graph ErdosRenyi(VertexId n, EdgeId m, std::uint64_t seed);

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `edges_per_vertex` existing vertices chosen proportionally to degree.
/// Produces a power-law degree distribution (used by the paper's Exp-6
/// scalability test) but few triangles.
Graph BarabasiAlbert(VertexId n, std::uint32_t edges_per_vertex,
                     std::uint64_t seed);

/// Holme–Kim "power-law cluster" model: Barabási–Albert plus triad
/// formation. With probability `triad_probability` an attachment step links
/// to a random neighbor of the previously chosen target, closing a triangle.
/// This yields power-law degrees AND high clustering — the combination that
/// gives real social networks their heavy-tailed edge-trussness
/// distribution, making it the right stand-in for the SNAP datasets.
Graph HolmeKim(VertexId n, std::uint32_t edges_per_vertex,
               double triad_probability, std::uint64_t seed);

/// R-MAT recursive matrix generator (Chakrabarti et al.): 2^scale vertices,
/// edge_factor * 2^scale edge samples with quadrant probabilities a,b,c
/// (d = 1-a-b-c). Duplicates and self-loops are removed, so the final edge
/// count is slightly below the sample count.
Graph RMat(std::uint32_t scale, std::uint32_t edge_factor, double a, double b,
           double c, std::uint64_t seed);

/// Options for the planted-community / collaboration-network generator.
struct CollaborationOptions {
  /// Number of authors (vertices).
  VertexId num_authors = 10000;
  /// Number of research groups (planted near-cliques).
  std::uint32_t num_groups = 600;
  /// Group size is uniform in [min_group_size, max_group_size].
  std::uint32_t min_group_size = 4;
  std::uint32_t max_group_size = 12;
  /// Probability that an intra-group pair co-authors.
  double intra_group_probability = 0.9;
  /// Expected number of random cross-group "bridge" edges per author.
  double bridge_edges_per_author = 0.5;
  /// Number of "prolific" hub authors planted to join many groups (these
  /// become the high-structural-diversity vertices of the case study).
  std::uint32_t num_hubs = 20;
  /// Number of groups each hub joins.
  std::uint32_t groups_per_hub = 6;
  /// Weak ties planted between members of *different* groups of the same
  /// hub. These single co-author edges connect the hub's social contexts
  /// into one component (so the component model cannot decompose the
  /// ego-network — the paper's Exp-10 observation) without creating the
  /// triangles a k-truss would need to merge them.
  std::uint32_t inter_group_ties_per_hub = 4;
};

/// Result of the collaboration generator: the graph plus the planted truth
/// used by tests and the case-study benchmark.
struct CollaborationGraph {
  Graph graph;
  /// Planted hub authors, in order of planting.
  std::vector<VertexId> hubs;
  /// Group membership lists (vertex ids), one per group.
  std::vector<std::vector<VertexId>> groups;
};

/// DBLP-style collaboration network: overlapping near-clique research groups
/// joined by bridge authors, plus planted prolific hubs whose ego-networks
/// decompose into several dense k-truss contexts. Substitute for the
/// paper's DBLP case study (Exp-10..12).
CollaborationGraph Collaboration(const CollaborationOptions& options,
                                 std::uint64_t seed);

/// The exact 17-vertex running example of the paper's Figure 1. Vertex ids:
///   0 = v (the query vertex); 1..4 = x1..x4; 5..8 = y1..y4;
///   9..14 = r1..r6; 15 = s1, 16 = s2.
/// Properties (verified in tests): at k=4 the ego-network of v has social
/// contexts {x1..x4}, {y1..y4}, {r1..r6}, so score(v) = 3.
Graph PaperFigure1Graph();

/// Names for Figure 1's vertices, for example/demo output.
const char* PaperFigure1VertexName(VertexId v);

}  // namespace tsd
