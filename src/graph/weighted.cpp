#include "graph/weighted.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "check/check.h"

namespace ultra::graph {

WeightedGraph WeightedGraph::from_edges(VertexId n,
                                        std::vector<WeightedEdge> edges) {
  WeightedGraph g;
  g.adj_.resize(n);
  // One (edge, weight) pair per edge that is not a loop. After the sort, the
  // first pair of each edge holds its lightest parallel copy. Edges ascend
  // in (u, v) order, so vertex x first receives its smaller neighbours (x as
  // v), then its larger ones (x as u), both ascending: every list comes out
  // sorted.
  std::vector<std::pair<Edge, Weight>> keyed;
  keyed.reserve(edges.size());
  for (const WeightedEdge& e : edges) {
    if (e.u == e.v) continue;
    ULTRA_CHECK_BOUNDS(e.u < n && e.v < n)
        << "WeightedGraph::from_edges: edge (" << e.u << "," << e.v
        << ") out of range for n = " << n;
    ULTRA_CHECK_ARG(e.w > 0)
        << "WeightedGraph::from_edges: weights must be positive";
    keyed.emplace_back(make_edge(e.u, e.v), e.w);
  }
  std::sort(keyed.begin(), keyed.end());
  for (std::size_t j = 0; j < keyed.size(); ++j) {
    const auto [edge, w] = keyed[j];
    if (j > 0 && keyed[j - 1].first == edge) continue;
    g.adj_[edge.u].push_back(Arc{edge.v, w});
    g.adj_[edge.v].push_back(Arc{edge.u, w});
    ++g.m_;
  }
  return g;
}

std::vector<WeightedEdge> WeightedGraph::edge_list() const {
  std::vector<WeightedEdge> out;
  out.reserve(m_);
  for (VertexId u = 0; u < num_vertices(); ++u) {
    for (const Arc& a : adj_[u]) {
      if (u < a.to) out.push_back(WeightedEdge{u, a.to, a.w});
    }
  }
  return out;
}

Graph WeightedGraph::topology() const {
  std::vector<Edge> edges;
  edges.reserve(m_);
  for (VertexId u = 0; u < num_vertices(); ++u) {
    for (const Arc& a : adj_[u]) {
      if (u < a.to) edges.push_back(Edge{u, a.to});
    }
  }
  return Graph::from_edges(num_vertices(), std::move(edges));
}

std::vector<Weight> dijkstra(const WeightedGraph& g, VertexId source) {
  const VertexId n = g.num_vertices();
  ULTRA_CHECK_BOUNDS(source < n) << "dijkstra: source " << source
                                 << " out of range";
  std::vector<Weight> dist(n, kInfiniteWeight);
  using Item = std::pair<Weight, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[source] = 0;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;
    for (const auto& arc : g.neighbors(v)) {
      const Weight nd = d + arc.w;
      if (nd < dist[arc.to]) {
        dist[arc.to] = nd;
        heap.emplace(nd, arc.to);
      }
    }
  }
  return dist;
}

}  // namespace ultra::graph
