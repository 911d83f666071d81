// Union-find (disjoint set union) with union by size and path halving.
// Used for connected-component identification of social contexts, Kruskal's
// maximum spanning forest in TSD-index construction, and supernode merging in
// GCT-index construction. GroupBySet is the one root → slot → group pass that
// turns a finished union-find into component or context lists.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "common/check.h"

namespace tsd {

class DisjointSet {
 public:
  DisjointSet() = default;
  explicit DisjointSet(std::size_t n) { Reset(n); }

  /// Reinitializes to n singleton sets.
  void Reset(std::size_t n) {
    parent_.resize(n);
    std::iota(parent_.begin(), parent_.end(), 0U);
    size_.assign(n, 1U);
    num_sets_ = n;
  }

  std::size_t size() const { return parent_.size(); }

  /// Representative of x's set (with path halving).
  std::uint32_t Find(std::uint32_t x) {
    TSD_DCHECK(x < parent_.size());
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Merges the sets of a and b. Returns true if they were distinct.
  bool Union(std::uint32_t a, std::uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    --num_sets_;
    return true;
  }

  bool Connected(std::uint32_t a, std::uint32_t b) {
    return Find(a) == Find(b);
  }

  /// Number of elements in x's set.
  std::uint32_t SetSize(std::uint32_t x) { return size_[Find(x)]; }

  /// Total number of disjoint sets (including singletons).
  std::size_t NumSets() const { return num_sets_; }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
  std::size_t num_sets_ = 0;
};

/// Appends one group per set to `*groups`: visits the ids i < dsu.size()
/// with include(i) in ascending order, opens a new group the first time a
/// set's root is seen (so groups come out in order of smallest included
/// member), and calls emit(group, i) to add i to its set's group. Roots map
/// to groups through the dense `slot_of_root`, caller scratch that is
/// overwritten.
template <typename Group, typename IncludeFn, typename EmitFn>
void GroupBySet(DisjointSet& dsu, std::vector<std::uint32_t>& slot_of_root,
                std::vector<Group>* groups, IncludeFn&& include,
                EmitFn&& emit) {
  constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);
  const auto n = static_cast<std::uint32_t>(dsu.size());
  slot_of_root.assign(n, kNoSlot);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!include(i)) continue;
    const std::uint32_t root = dsu.Find(i);
    if (slot_of_root[root] == kNoSlot) {
      slot_of_root[root] = static_cast<std::uint32_t>(groups->size());
      groups->emplace_back();
    }
    emit((*groups)[slot_of_root[root]], i);
  }
}

}  // namespace tsd
