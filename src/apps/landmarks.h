// The landmark step both k = 2 Thorup–Zwick structures here share
// (DistanceOracle and CompactRouting): sample A ⊆ V with probability
// n^{-1/2}, then give every vertex its pivot p(v) — the nearest landmark,
// min-id tie-broken like the paper's p_i — and the exact distance d(v, A).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace ultra::apps {

struct Landmarks {
  std::vector<graph::VertexId> ids;  // A, ascending
  // Vertex -> its index in ids; graph::kUnreachable off A.
  std::vector<std::uint32_t> row_of;
  // p(v) and d(v, A); kInvalidVertex / kUnreachable where v's component
  // holds no landmark.
  std::vector<graph::VertexId> pivot;
  std::vector<std::uint32_t> pivot_dist;
};

// Vertices join A in id order, one util::Rng(seed) draw each; an empty
// sample promotes vertex 0 (an empty A would make every bunch the whole
// graph). Pivots come from one graph::multi_source_bfs.
[[nodiscard]] Landmarks sample_landmarks(const graph::Graph& g,
                                         std::uint64_t seed);

}  // namespace ultra::apps
