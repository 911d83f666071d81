// Benchmark inputs. Everything here is a pure function of the seed and is
// produced without the library, so the program under test sees only the
// files and request frames built from it.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util.h"

namespace perfbench {

struct EdgeList {
  std::uint32_t num_vertices = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  // u < v
};

/// Holme–Kim graph: preferential attachment with `m` edges per new vertex,
/// each after the first replaced with probability `p` by a triad-closing
/// edge to a neighbour of the previous target (power-law degrees plus the
/// high clustering that gives ego networks non-trivial trusses).
EdgeList HolmeKim(std::uint32_t n, std::uint32_t m, double p,
                  std::uint64_t seed);

void WriteEdgeList(const EdgeList& graph, const std::string& path);
/// The benchmark's own reader for files written by WriteEdgeList.
EdgeList ReadEdgeList(const std::string& path);

struct GraphShape {
  std::uint32_t n, m;
  double p;
};
/// The ROADMAP baseline graph: about 20k vertices and 240k edges.
inline constexpr GraphShape kLargeGraph{20000, 12, 0.5};
/// The serving graph: about 12k vertices and 48k edges, so one GCT query
/// costs a fraction of a millisecond and the serving layer is a large share
/// of each request.
inline constexpr GraphShape kServeGraph{12000, 4, 0.7};

struct Query {
  std::uint32_t k = 0;
  std::uint32_t r = 0;
};

/// Query mixes: direct per-method queries, served GCT queries, and the
/// queries interleaved with live updates.
std::vector<Query> MethodMix();  // k 3..8 x r {1, 10, 100}
std::vector<Query> ServeMix();   // k 2..6 x r {1, 5, 10}
std::vector<Query> LiveMix();    // k 3..8 x r {1, 10}

/// `count` indices into a mix of `mix_size` queries: back-to-back seeded
/// permutations, so every stretch of the stream covers the mix evenly.
std::vector<std::uint32_t> MixStream(std::size_t mix_size, std::size_t count,
                                     Rng& rng);

/// One request of an open-loop stream.
struct Op {
  enum Kind : std::uint8_t { kQuery = 0, kInsert = 1, kRemove = 2 };
  Kind kind = kQuery;
  std::uint32_t mix = 0;     // kQuery: index into the stream's mix
  std::uint64_t tenant = 0;  // kQuery
  std::uint32_t u = 0, v = 0;  // updates
  bool expect_applied = false;  // updates: applied (true) or a noop
};

/// A live stream over `graph`: about one op in `update_every` is an update,
/// the rest are queries from LiveMix. Updates insert absent edges (half of
/// them closing a triangle, as social graphs grow), remove present ones,
/// and a few are deliberate noops (a duplicate insert or an absent remove).
/// `expect_applied` follows the edge set as the stream mutates it.
std::vector<Op> LiveOps(const EdgeList& graph, std::size_t count,
                        std::uint32_t update_every, std::uint64_t seed);

/// A query-only stream over ServeMix with tenants cycling over `tenants`.
std::vector<Op> ServeOps(std::size_t count, std::uint32_t tenants,
                         std::uint64_t seed);

void WriteOps(const std::vector<Op>& ops, const std::string& path);
std::vector<Op> ReadOps(const std::string& path);

/// Poisson arrival offsets (seconds from the phase start) at `rate` per s.
std::vector<double> PoissonOffsets(std::size_t count, double rate, Rng& rng);

/// A top-r answer in comparable form.
struct Entry {
  std::uint32_t vertex = 0;
  std::uint32_t score = 0;
  std::vector<std::vector<std::uint32_t>> contexts;
  bool operator==(const Entry&) const = default;
};
using Answer = std::vector<Entry>;

void WriteAnswers(const std::vector<Answer>& answers, const std::string& path);
std::vector<Answer> ReadAnswers(const std::string& path);

}  // namespace perfbench
