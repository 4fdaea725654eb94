#include "graph/connectivity.h"

#include "graph/bfs.h"

namespace ultra::graph {

std::vector<std::uint32_t> Components::sizes() const {
  std::vector<std::uint32_t> out(count, 0);
  for (const std::uint32_t c : component_of) ++out[c];
  return out;
}

Components connected_components(const Graph& g) {
  const VertexId n = g.num_vertices();
  Components result;
  result.component_of.resize(n);
  // dist stays set across searches: it marks the vertices already labeled.
  std::vector<std::uint32_t> dist(n, kUnreachable);
  std::vector<VertexId> order;
  order.reserve(n);
  for (VertexId s = 0; s < n; ++s) {
    if (dist[s] != kUnreachable) continue;
    order.clear();
    bfs_visit(g, s, kUnreachable, dist, order);
    for (const VertexId v : order) result.component_of[v] = result.count;
    ++result.count;
  }
  return result;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() <= 1) return true;
  return connected_components(g).count == 1;
}

bool same_connectivity(const Graph& a, const Graph& b) {
  if (a.num_vertices() != b.num_vertices()) return false;
  const Components ca = connected_components(a);
  const Components cb = connected_components(b);
  if (ca.count != cb.count) return false;
  // Same count plus b subgraph-of-a (or refinement in general): verify the
  // partitions agree via a bijection check.
  std::vector<std::uint32_t> map_ab(ca.count, static_cast<std::uint32_t>(-1));
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    const std::uint32_t x = ca.component_of[v];
    const std::uint32_t y = cb.component_of[v];
    if (map_ab[x] == static_cast<std::uint32_t>(-1)) {
      map_ab[x] = y;
    } else if (map_ab[x] != y) {
      return false;
    }
  }
  return true;
}

}  // namespace ultra::graph
