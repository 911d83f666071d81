#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {
namespace {

constexpr std::uint32_t kNone = ~std::uint32_t{0};

std::uint64_t Key(std::uint32_t u, std::uint32_t v) {
  if (u > v) std::swap(u, v);
  return (std::uint64_t{u} << 32) | v;
}

bool Contains(const std::vector<std::uint32_t>& items, std::uint32_t x) {
  return std::find(items.begin(), items.end(), x) != items.end();
}

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error(what);
}

}  // namespace

EdgeList HolmeKim(std::uint32_t n, std::uint32_t m, double p,
                  std::uint64_t seed) {
  Rng rng(seed);
  EdgeList out;
  out.num_vertices = n;
  std::vector<std::vector<std::uint32_t>> adj(n);
  std::vector<std::uint32_t> ends;  // every edge endpoint: degree-biased pool
  auto add = [&](std::uint32_t u, std::uint32_t v) {
    adj[u].push_back(v);
    adj[v].push_back(u);
    ends.push_back(u);
    ends.push_back(v);
    out.edges.emplace_back(std::min(u, v), std::max(u, v));
  };
  const std::uint32_t clique = std::min(n, m + 1);
  for (std::uint32_t u = 0; u < clique; ++u) {
    for (std::uint32_t v = u + 1; v < clique; ++v) add(u, v);
  }
  std::vector<std::uint32_t> chosen;
  for (std::uint32_t v = clique; v < n; ++v) {
    chosen.clear();
    std::uint32_t prev = kNone;
    for (std::uint32_t j = 0; j < m; ++j) {
      std::uint32_t target = kNone;
      if (prev != kNone && rng.UniformDouble() < p) {
        const std::vector<std::uint32_t>& nb = adj[prev];
        for (int tries = 0; tries < 8 && target == kNone; ++tries) {
          const std::uint32_t w = nb[rng.Uniform(nb.size())];
          if (!Contains(chosen, w)) target = w;
        }
      }
      for (int tries = 0; tries < 64 && target == kNone; ++tries) {
        const std::uint32_t w = ends[rng.Uniform(ends.size())];
        if (!Contains(chosen, w)) target = w;
      }
      if (target == kNone) continue;
      chosen.push_back(target);
      prev = target;
    }
    for (std::uint32_t target : chosen) add(v, target);
  }
  std::sort(out.edges.begin(), out.edges.end());
  return out;
}

void WriteEdgeList(const EdgeList& graph, const std::string& path) {
  std::string text = "# perfbench graph: " +
                     std::to_string(graph.num_vertices) + " vertices, " +
                     std::to_string(graph.edges.size()) + " edges\n";
  text.reserve(text.size() + graph.edges.size() * 12);
  for (const auto& [u, v] : graph.edges) {
    text += std::to_string(u);
    text += ' ';
    text += std::to_string(v);
    text += '\n';
  }
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) Fail("cannot write " + path);
}

EdgeList ReadEdgeList(const std::string& path) {
  std::ifstream in(path);
  if (!in) Fail("cannot read " + path);
  EdgeList out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    char* end = nullptr;
    const auto u = static_cast<std::uint32_t>(std::strtoul(line.c_str(), &end, 10));
    const auto v = static_cast<std::uint32_t>(std::strtoul(end, nullptr, 10));
    out.edges.emplace_back(std::min(u, v), std::max(u, v));
    out.num_vertices = std::max(out.num_vertices, std::max(u, v) + 1);
  }
  return out;
}

std::vector<Query> MethodMix() {
  std::vector<Query> mix;
  for (std::uint32_t k = 3; k <= 8; ++k) {
    for (std::uint32_t r : {1u, 10u, 100u}) mix.push_back({k, r});
  }
  return mix;
}

std::vector<Query> ServeMix() {
  std::vector<Query> mix;
  for (std::uint32_t k = 2; k <= 6; ++k) {
    for (std::uint32_t r : {1u, 5u, 10u}) mix.push_back({k, r});
  }
  return mix;
}

std::vector<Query> LiveMix() {
  std::vector<Query> mix;
  for (std::uint32_t k = 3; k <= 8; ++k) {
    for (std::uint32_t r : {1u, 10u}) mix.push_back({k, r});
  }
  return mix;
}

std::vector<std::uint32_t> MixStream(std::size_t mix_size, std::size_t count,
                                     Rng& rng) {
  std::vector<std::uint32_t> stream;
  stream.reserve(count + mix_size);
  std::vector<std::uint32_t> perm(mix_size);
  while (stream.size() < count) {
    for (std::size_t i = 0; i < mix_size; ++i) {
      perm[i] = static_cast<std::uint32_t>(i);
    }
    rng.Shuffle(perm);
    stream.insert(stream.end(), perm.begin(), perm.end());
  }
  stream.resize(count);
  return stream;
}

std::vector<Op> LiveOps(const EdgeList& graph, std::size_t count,
                        std::uint32_t update_every, std::uint64_t seed) {
  Rng rng(seed);
  const std::uint32_t n = graph.num_vertices;
  std::vector<std::vector<std::uint32_t>> adj(n);
  std::vector<std::uint64_t> present;  // edge keys, for uniform picks
  std::unordered_map<std::uint64_t, std::size_t> position;
  position.reserve(graph.edges.size() * 2);
  for (const auto& [u, v] : graph.edges) {
    adj[u].push_back(v);
    adj[v].push_back(u);
    position[Key(u, v)] = present.size();
    present.push_back(Key(u, v));
  }
  auto insert = [&](std::uint32_t u, std::uint32_t v) {
    adj[u].push_back(v);
    adj[v].push_back(u);
    position[Key(u, v)] = present.size();
    present.push_back(Key(u, v));
  };
  auto remove = [&](std::uint32_t u, std::uint32_t v) {
    const std::uint64_t key = Key(u, v);
    const std::size_t at = position.at(key);
    position[present.back()] = at;
    present[at] = present.back();
    present.pop_back();
    position.erase(key);
    std::erase(adj[u], v);
    std::erase(adj[v], u);
  };
  auto random_absent = [&](std::uint32_t* u, std::uint32_t* v) {
    do {
      *u = static_cast<std::uint32_t>(rng.Uniform(n));
      *v = static_cast<std::uint32_t>(rng.Uniform(n));
    } while (*u == *v || position.count(Key(*u, *v)) != 0);
  };
  auto random_present = [&](std::uint32_t* u, std::uint32_t* v) {
    const std::uint64_t key = present[rng.Uniform(present.size())];
    *u = static_cast<std::uint32_t>(key >> 32);
    *v = static_cast<std::uint32_t>(key);
  };
  // An absent edge that closes a triangle: two non-adjacent neighbours of a
  // random vertex (falls back to a uniform pair when none is found quickly).
  auto triad_absent = [&](std::uint32_t* u, std::uint32_t* v) {
    for (int tries = 0; tries < 32; ++tries) {
      const auto& nb = adj[rng.Uniform(n)];
      if (nb.size() < 2) continue;
      *u = nb[rng.Uniform(nb.size())];
      *v = nb[rng.Uniform(nb.size())];
      if (*u != *v && position.count(Key(*u, *v)) == 0) return;
    }
    random_absent(u, v);
  };

  const std::size_t live_mix = LiveMix().size();
  std::vector<Op> ops(count);
  for (std::size_t i = 0; i < count; ++i) {
    Op& op = ops[i];
    if (rng.Uniform(update_every) != 0) {
      op.kind = Op::kQuery;
      op.mix = static_cast<std::uint32_t>(rng.Uniform(live_mix));
      op.tenant = i % 16;
      continue;
    }
    const std::uint64_t roll = rng.Uniform(20);
    if (roll == 0) {  // duplicate insert: noop
      op.kind = Op::kInsert;
      random_present(&op.u, &op.v);
    } else if (roll == 1) {  // absent remove: noop
      op.kind = Op::kRemove;
      random_absent(&op.u, &op.v);
    } else if (roll < 11) {
      op.kind = Op::kInsert;
      if (roll % 2 == 0) {
        triad_absent(&op.u, &op.v);
      } else {
        random_absent(&op.u, &op.v);
      }
      insert(op.u, op.v);
      op.expect_applied = true;
    } else {
      op.kind = Op::kRemove;
      random_present(&op.u, &op.v);
      remove(op.u, op.v);
      op.expect_applied = true;
    }
  }
  return ops;
}

std::vector<Op> ServeOps(std::size_t count, std::uint32_t tenants,
                         std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::uint32_t> stream =
      MixStream(ServeMix().size(), count, rng);
  std::vector<Op> ops(count);
  for (std::size_t i = 0; i < count; ++i) {
    ops[i].kind = Op::kQuery;
    ops[i].mix = stream[i];
    ops[i].tenant = i % tenants;
  }
  return ops;
}

void WriteOps(const std::vector<Op>& ops, const std::string& path) {
  std::ofstream out(path);
  for (const Op& op : ops) {
    if (op.kind == Op::kQuery) {
      out << "q " << op.mix << ' ' << op.tenant << '\n';
    } else {
      out << (op.kind == Op::kInsert ? '+' : '-') << ' ' << op.u << ' '
          << op.v << ' ' << (op.expect_applied ? 1 : 0) << '\n';
    }
  }
  if (!out) Fail("cannot write " + path);
}

std::vector<Op> ReadOps(const std::string& path) {
  std::ifstream in(path);
  if (!in) Fail("cannot read " + path);
  std::vector<Op> ops;
  char kind = 0;
  while (in >> kind) {
    Op op;
    if (kind == 'q') {
      in >> op.mix >> op.tenant;
    } else {
      int applied = 0;
      op.kind = kind == '+' ? Op::kInsert : Op::kRemove;
      in >> op.u >> op.v >> applied;
      op.expect_applied = applied != 0;
    }
    ops.push_back(op);
  }
  return ops;
}

std::vector<double> PoissonOffsets(std::size_t count, double rate, Rng& rng) {
  std::vector<double> offsets(count);
  double t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    t += rng.ExpGap(rate);
    offsets[i] = t;
  }
  return offsets;
}

void WriteAnswers(const std::vector<Answer>& answers, const std::string& path) {
  std::ofstream out(path);
  out << answers.size() << '\n';
  for (const Answer& answer : answers) {
    out << answer.size() << '\n';
    for (const Entry& e : answer) {
      out << e.vertex << ' ' << e.score << ' ' << e.contexts.size();
      for (const auto& context : e.contexts) {
        out << ' ' << context.size();
        for (std::uint32_t member : context) out << ' ' << member;
      }
      out << '\n';
    }
  }
  if (!out) Fail("cannot write " + path);
}

std::vector<Answer> ReadAnswers(const std::string& path) {
  std::ifstream in(path);
  if (!in) Fail("cannot read " + path);
  std::size_t count = 0;
  in >> count;
  std::vector<Answer> answers(count);
  for (Answer& answer : answers) {
    std::size_t entries = 0;
    in >> entries;
    answer.resize(entries);
    for (Entry& e : answer) {
      std::size_t contexts = 0;
      in >> e.vertex >> e.score >> contexts;
      e.contexts.resize(contexts);
      for (auto& context : e.contexts) {
        std::size_t size = 0;
        in >> size;
        context.resize(size);
        for (std::uint32_t& member : context) in >> member;
      }
    }
  }
  if (!in) Fail("malformed answers file " + path);
  return answers;
}

}  // namespace perfbench
