// Breadth-first search primitives: single-source, multi-source with minimum-
// identifier tie breaking (the rule the paper uses to define p_i(v), the
// nearest V_i-vertex with smallest unique id), truncated searches, and path
// extraction. These are the sequential analogues of the flooding protocols in
// Sections 2 and 4.4.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace ultra::graph {

inline constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();

struct BfsResult {
  std::vector<std::uint32_t> dist;   // kUnreachable if not visited
  std::vector<VertexId> parent;      // kInvalidVertex at sources / unvisited
};

// The BFS kernel every single-source search here runs on: visits every
// vertex within `max_dist` of `source` in BFS order, appending it to `order`
// (the flat frontier doubles as the FIFO queue) and setting its `dist`, and
// its BFS-tree `parent` (first discoverer) when that span is non-empty. The
// caller owns the buffers: `dist` holds one entry per vertex and must be
// kUnreachable on every vertex the search can reach, `parent` (if given)
// holds one entry per vertex, and `order` must be empty. Costs O(edges
// scanned), never O(n), so one set of buffers serves many small searches
// when bfs_reset restores them.
void bfs_visit(const Graph& g, VertexId source, std::uint32_t max_dist,
               std::span<std::uint32_t> dist, std::vector<VertexId>& order,
               std::span<VertexId> parent = {});

// Undoes bfs_visit in O(|order|): dist back to kUnreachable on the visited
// vertices only, then order cleared (capacity kept).
void bfs_reset(std::span<std::uint32_t> dist, std::vector<VertexId>& order);

// Single-source BFS, optionally truncated at `max_dist` (vertices farther
// than max_dist keep dist == kUnreachable).
[[nodiscard]] BfsResult bfs(const Graph& g, VertexId source,
                            std::uint32_t max_dist = kUnreachable);

// Distances only (cheaper; no parent array).
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(
    const Graph& g, VertexId source, std::uint32_t max_dist = kUnreachable);

struct MultiSourceBfsResult {
  std::vector<std::uint32_t> dist;   // distance to nearest source
  std::vector<VertexId> nearest;     // min-id nearest source (paper's p_i)
  std::vector<VertexId> parent;      // next hop toward `nearest`
};

// Multi-source BFS from `sources`, truncated at `max_dist`. Tie breaking:
// among all sources at the minimum distance, `nearest[v]` is the one with the
// smallest id, and parent pointers are consistent with it, i.e. following
// parent from v traces a shortest path to nearest[v]. This matches the
// paper's definition of p_i(v) ("the vertex nearest to u in V_i ... the one
// whose unique identifier is minimum") and the key property that every vertex
// on P(v, p_i(v)) has the same p_i (Lemma 7's forest argument).
[[nodiscard]] MultiSourceBfsResult multi_source_bfs(
    const Graph& g, std::span<const VertexId> sources,
    std::uint32_t max_dist = kUnreachable);

// Shortest u-v path as a vertex sequence (u first). Empty if disconnected.
[[nodiscard]] std::vector<VertexId> shortest_path(const Graph& g, VertexId u,
                                                  VertexId v);

// All vertices within distance `radius` of `center` (including center),
// in BFS order.
[[nodiscard]] std::vector<VertexId> ball(const Graph& g, VertexId center,
                                         std::uint32_t radius);

// Eccentricity of `source` within its component.
[[nodiscard]] std::uint32_t eccentricity(const Graph& g, VertexId source);

// Exact diameter of the largest component via BFS from every vertex in it.
// O(n * m); intended for test/bench-sized graphs.
[[nodiscard]] std::uint32_t exact_diameter(const Graph& g);

// Lower bound on the diameter via a double BFS sweep (exact on trees).
[[nodiscard]] std::uint32_t double_sweep_diameter_lb(const Graph& g,
                                                     VertexId start = 0);

}  // namespace ultra::graph
