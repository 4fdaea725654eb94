// Connected components and a small union-find — used to validate that
// spanners preserve connectivity (the minimum requirement for a "skeleton"
// in the paper's sense), to bound the Fibonacci repair's balls by
// component, and to thin the CDS skeleton's connectors to a forest.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace ultra::graph {

struct Components {
  std::vector<std::uint32_t> component_of;  // per vertex
  std::uint32_t count = 0;

  [[nodiscard]] std::vector<std::uint32_t> sizes() const;
};

// Components numbered 0, 1, ... in order of their least vertex.
[[nodiscard]] Components connected_components(const Graph& g);

[[nodiscard]] bool is_connected(const Graph& g);

// True iff u,v in the same component of `a` implies same component of `b`.
// (Used as: spanner preserves the connectivity of the input graph.)
[[nodiscard]] bool same_connectivity(const Graph& a, const Graph& b);

class UnionFind {
 public:
  explicit UnionFind(std::uint32_t n) : parent_(n), rank_(n, 0) {
    for (std::uint32_t i = 0; i < n; ++i) parent_[i] = i;
  }

  std::uint32_t find(std::uint32_t x) noexcept {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  // Returns true if the two sets were distinct (i.e. a merge happened).
  bool unite(std::uint32_t a, std::uint32_t b) noexcept {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (rank_[a] < rank_[b]) std::swap(a, b);
    parent_[b] = a;
    if (rank_[a] == rank_[b]) ++rank_[a];
    return true;
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint8_t> rank_;
};

}  // namespace ultra::graph
