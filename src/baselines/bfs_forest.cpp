#include "baselines/bfs_forest.h"

#include <vector>

#include "graph/bfs.h"

namespace ultra::baselines {

using graph::VertexId;

spanner::Spanner bfs_forest(const graph::Graph& g) {
  const VertexId n = g.num_vertices();
  spanner::Spanner s(g);
  // dist stays set across roots: it marks the components already spanned.
  std::vector<std::uint32_t> dist(n, graph::kUnreachable);
  std::vector<VertexId> parent(n, graph::kInvalidVertex);
  std::vector<VertexId> order;
  order.reserve(n);
  for (VertexId root = 0; root < n; ++root) {
    if (dist[root] != graph::kUnreachable) continue;
    order.clear();
    graph::bfs_visit(g, root, graph::kUnreachable, dist, order, parent);
    // Discovery order: each vertex's tree edge, as the search found it.
    for (std::size_t i = 1; i < order.size(); ++i) {
      s.add_edge(parent[order[i]], order[i]);
    }
  }
  return s;
}

}  // namespace ultra::baselines
