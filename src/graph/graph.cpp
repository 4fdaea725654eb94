#include "graph/graph.h"

#include <algorithm>
#include <sstream>

#include "check/check.h"

namespace ultra::graph {

Graph Graph::from_edges(VertexId n, std::vector<Edge> edges) {
  // Normalize, drop loops, dedup.
  std::vector<Edge> clean;
  clean.reserve(edges.size());
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;
    const Edge ne = make_edge(e.u, e.v);
    ULTRA_CHECK_BOUNDS(ne.v < n)
        << "Graph::from_edges: endpoint id " << ne.v << " >= n = " << n;
    clean.push_back(ne);
  }
  std::sort(clean.begin(), clean.end());
  clean.erase(std::unique(clean.begin(), clean.end()), clean.end());

  Graph g;
  g.edges_ = std::move(clean);
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : g.edges_) {
    ++g.offsets_[e.u + 1];
    ++g.offsets_[e.v + 1];
  }
  for (std::size_t i = 1; i < g.offsets_.size(); ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  g.adjacency_.resize(2 * g.edges_.size());
  std::vector<std::uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Edge& e : g.edges_) {
    g.adjacency_[cursor[e.u]++] = e.v;
    g.adjacency_[cursor[e.v]++] = e.u;
  }
  // Edges were processed in sorted order, and each vertex's neighbors arrive
  // in increasing order of the *other* endpoint only for the u-side; sort each
  // list to guarantee the invariant for both sides.
  for (VertexId v = 0; v < n; ++v) {
    std::sort(g.adjacency_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[v]),
              g.adjacency_.begin() +
                  static_cast<std::ptrdiff_t>(g.offsets_[v + 1]));
  }
  return g;
}

EdgeId Graph::find_arc(VertexId a, VertexId b) const {
  if (a >= num_vertices() || b >= num_vertices()) return kNoArc;
  if (degree(a) > degree(b) || (degree(a) == degree(b) && a > b)) {
    std::swap(a, b);
  }
  const auto nbrs = neighbors(a);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), b);
  if (it == nbrs.end() || *it != b) return kNoArc;
  return offsets_[a] + static_cast<EdgeId>(it - nbrs.begin());
}

std::uint32_t Graph::max_degree() const noexcept {
  std::uint32_t best = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    best = std::max(best, degree(v));
  }
  return best;
}

std::string Graph::summary() const {
  std::ostringstream ss;
  ss << "Graph(n=" << num_vertices() << ", m=" << num_edges() << ")";
  return ss.str();
}

void GraphBuilder::add_edge(VertexId a, VertexId b) {
  ensure_vertex(a);
  ensure_vertex(b);
  if (a == b) return;
  edges_.push_back(make_edge(a, b));
}

Graph GraphBuilder::build() && {
  return Graph::from_edges(n_, std::move(edges_));
}

Graph GraphBuilder::build() const& { return Graph::from_edges(n_, edges_); }

}  // namespace ultra::graph
