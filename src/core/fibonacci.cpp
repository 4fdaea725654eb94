#include "core/fibonacci.h"

#include <algorithm>
#include <span>

#include "graph/bfs.h"
#include "util/rng.h"

namespace ultra::core {

using graph::Graph;
using graph::VertexId;

FibonacciResult build_fibonacci_with_levels(
    const Graph& g, const FibonacciLevels& levels,
    const std::vector<unsigned>& level_of) {
  const VertexId n = g.num_vertices();
  FibonacciResult result{spanner::Spanner(g), FibonacciStats{}};
  FibonacciStats& stats = result.stats;
  stats.levels = levels;
  const unsigned o = levels.order;

  stats.level_sizes.assign(o + 1, 0);
  stats.parent_edges.assign(o + 1, 0);
  stats.ball_edges.assign(o + 1, 0);
  stats.ball_total.assign(o + 1, 0);
  stats.predicted_size = static_cast<double>(o) * n +
                         (o + 1.0) * levels.expected_level_size;

  std::vector<std::vector<VertexId>> level_sets(o + 1);
  for (VertexId v = 0; v < n; ++v) {
    for (unsigned i = 0; i <= std::min(level_of[v], o); ++i) {
      level_sets[i].push_back(v);
    }
  }
  for (unsigned i = 0; i <= o; ++i) {
    stats.level_sizes[i] = level_sets[i].size();
  }

  // Per level k in [1, o]: one multi-source BFS from V_k truncated at
  // ell^{k-1}. It yields (a) the parent forests P(v, p_k(v)) for
  // d(v, p_k(v)) <= ell^{k-1}, and (b) the B_{k, ell} limiter distances
  // d(v, V_k) needed when building S_{k-1} (same truncation: ell^{(k-1)+0}).
  std::vector<std::vector<std::uint32_t>> level_dist(o + 2);
  for (unsigned k = 1; k <= o; ++k) {
    const std::uint32_t r = levels.radius(k - 1);
    const auto ms = graph::multi_source_bfs(g, level_sets[k], r);
    for (VertexId v = 0; v < n; ++v) {
      if (ms.dist[v] != graph::kUnreachable && ms.dist[v] >= 1) {
        result.spanner.add_edge(v, ms.parent[v]);
        ++stats.parent_edges[k];
      }
    }
    level_dist[k] = std::move(ms.dist);
  }
  // V_{o+1} = ∅: distance identically unreachable.
  level_dist[o + 1].assign(n, graph::kUnreachable);

  // S_0: every v with d(v, V_1) > 1 keeps all incident edges
  // (B_{1,ell}(v) = neighbors closer than V_1, radius ell^0 = 1).
  for (VertexId v = 0; v < n; ++v) {
    const std::uint32_t d1 = level_dist[1][v];
    if (d1 == graph::kUnreachable || d1 > 1) {
      result.spanner.add_all_incident(v);
      stats.ball_edges[0] += g.degree(v);
      stats.ball_total[0] += g.degree(v);
    }
  }

  // S_i for i in [1, o]: for each v ∈ V_{i-1}, a truncated BFS collects
  // B_{i+1,ell}(v) ⊆ V_i and the BFS-tree paths to its members.
  std::vector<std::uint32_t> dist(n, graph::kUnreachable);
  std::vector<VertexId> parent(n, graph::kInvalidVertex);
  std::vector<VertexId> order;
  std::vector<std::uint8_t> walked(n, 0);
  for (unsigned i = 1; i <= o; ++i) {
    const std::uint32_t max_r = levels.radius(i);
    const auto& limiter = level_dist[i + 1];  // d(v, V_{i+1}), trunc ell^i
    for (const VertexId v : level_sets[i - 1]) {
      std::uint32_t r_v = max_r;
      if (limiter[v] != graph::kUnreachable) {
        if (limiter[v] == 0) continue;  // v ∈ V_{i+1}: empty ball
        r_v = std::min(r_v, limiter[v] - 1);
      }
      graph::bfs_visit(g, v, r_v, dist, order, parent);
      // Add the BFS-tree path from each V_i member back to v, in discovery
      // order; stop a walk early when it merges with an already-walked path
      // of this ball.
      for (const VertexId u : std::span(order).subspan(1)) {
        if (level_of[u] < i) continue;
        ++stats.ball_total[i];
        for (VertexId x = u; x != v && !walked[x]; x = parent[x]) {
          walked[x] = 1;
          result.spanner.add_edge(x, parent[x]);
          ++stats.ball_edges[i];
        }
      }
      for (const VertexId x : order) walked[x] = 0;
      graph::bfs_reset(dist, order);
    }
  }

  stats.spanner_size = result.spanner.size();
  return result;
}

FibonacciResult build_fibonacci(const Graph& g,
                                const FibonacciParams& params) {
  util::Rng rng(params.seed);
  const FibonacciLevels levels =
      FibonacciLevels::plan(g.num_vertices(), params);
  const auto level_of = levels.sample_levels(g.num_vertices(), rng);
  return build_fibonacci_with_levels(g, levels, level_of);
}

}  // namespace ultra::core
