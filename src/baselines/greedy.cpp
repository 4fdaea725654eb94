#include "baselines/greedy.h"

#include <vector>

#include "baselines/hop_reach.h"

namespace ultra::baselines {

using graph::VertexId;

spanner::Spanner greedy_spanner(const graph::Graph& g, unsigned k) {
  const VertexId n = g.num_vertices();
  spanner::Spanner s(g);
  const std::uint32_t limit = 2 * k - 1;

  // Incremental adjacency of the growing spanner, and the bidirectional
  // dist <= 2k-1 search over it (scratch reused across edges).
  AdjacencyLists adj(n);
  HopReach reach(n);

  for (const graph::Edge& e : g.edges()) {
    if (reach.within(adj, e.u, e.v, limit)) continue;
    s.add_edge(e);
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  return s;
}

}  // namespace ultra::baselines
