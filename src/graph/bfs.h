// Breadth-first search primitives: single-source, multi-source with minimum-
// identifier tie breaking (the rule the paper uses to define p_i(v), the
// nearest V_i-vertex with smallest unique id), truncated searches, and path
// extraction. These are the sequential analogues of the flooding protocols in
// Sections 2 and 4.4.
#pragma once

#include <algorithm>
#include <cstddef>
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

// Sources per bit-parallel sweep of bfs_distance_rows: one bit of a 64-bit
// mask each. Callers that hold rows for only part of their sources take
// them in chunks of this many.
inline constexpr std::size_t kBfsSweepWidth = 64;

// Distance rows from many sources: row r of the row-major
// |sources| x n block `out` receives d(sources[r], ·), kUnreachable where
// disconnected. Sources may repeat and come in any order. Bit-parallel BFS
// (Then et al., "The More the Merrier", PVLDB 8(4), 2014): each sweep takes
// kBfsSweepWidth sources, one bit each, and keeps a seen, frontier and next
// mask per vertex, so a level scans each frontier vertex's edges once for
// every source that reached it in the last level. Frontiers are vertex
// lists, so a level costs O(edges scanned), never O(n); a sweep costs O(n)
// to reset its masks plus O(k n) row writes. Scratch: 24 B of masks and
// 8 B of frontier lists per vertex, allocated once per call. Throws
// std::out_of_range for a source >= n (before writing anything) and
// std::invalid_argument unless out.size() == |sources| * n.
void bfs_distance_rows(const Graph& g, std::span<const VertexId> sources,
                       std::span<std::uint32_t> out);

// Calls visit(r, row_g, row_h) for r = 0, 1, ... in source order, where
// row_g and row_h hold d(sources[r], ·) in g and in h (each row spans its
// own graph's vertices), and stops after the first call that returns false.
// The rows come from bfs_distance_rows in chunks of kBfsSweepWidth sources,
// so the call holds one chunk of rows per graph, not a pair per source:
// 4k bytes per vertex of each graph, k = min(|sources|, kBfsSweepWidth).
template <typename Visit>
void for_each_distance_row_pair(const Graph& g, const Graph& h,
                                std::span<const VertexId> sources,
                                Visit visit) {
  const std::size_t ng = g.num_vertices();
  const std::size_t nh = h.num_vertices();
  const std::size_t width = std::min(sources.size(), kBfsSweepWidth);
  std::vector<std::uint32_t> rows_g(width * ng);
  std::vector<std::uint32_t> rows_h(width * nh);
  for (std::size_t base = 0; base < sources.size(); base += width) {
    const auto chunk =
        sources.subspan(base, std::min(width, sources.size() - base));
    bfs_distance_rows(g, chunk, {rows_g.data(), chunk.size() * ng});
    bfs_distance_rows(h, chunk, {rows_h.data(), chunk.size() * nh});
    for (std::size_t r = 0; r < chunk.size(); ++r) {
      const std::span<const std::uint32_t> row_g(rows_g.data() + r * ng, ng);
      const std::span<const std::uint32_t> row_h(rows_h.data() + r * nh, nh);
      if (!visit(base + r, row_g, row_h)) return;
    }
  }
}

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

// Exact diameter via BFS from every vertex: the largest eccentricity, so on a
// disconnected graph the largest diameter over all components. O(n * m);
// intended for test/bench-sized graphs.
[[nodiscard]] std::uint32_t exact_diameter(const Graph& g);

// Lower bound on the diameter via a double BFS sweep (exact on trees).
[[nodiscard]] std::uint32_t double_sweep_diameter_lb(const Graph& g,
                                                     VertexId start = 0);

}  // namespace ultra::graph
