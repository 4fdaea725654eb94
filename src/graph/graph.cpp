#include "graph/graph.h"

#include <algorithm>
#include <sstream>

#include "check/check.h"

namespace ultra::graph {

namespace {

// Sorts `edges` by (u, v) and drops duplicates in O(n + m): two stable
// counting passes, by v and then by u, an LSD radix sort on the
// endpoints. Every endpoint must be < n.
void sort_unique(VertexId n, std::vector<Edge>& edges) {
  std::vector<std::uint64_t> start(static_cast<std::size_t>(n) + 1);
  std::vector<Edge> by_v(edges.size());
  const auto pass = [&start](const std::vector<Edge>& from,
                             std::vector<Edge>& to, auto key) {
    std::fill(start.begin(), start.end(), 0);
    for (const Edge& e : from) ++start[key(e) + 1];
    for (std::size_t i = 1; i < start.size(); ++i) start[i] += start[i - 1];
    for (const Edge& e : from) to[start[key(e)]++] = e;
  };
  pass(edges, by_v, [](const Edge& e) { return e.v; });
  pass(by_v, edges, [](const Edge& e) { return e.u; });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
}

}  // namespace

Graph Graph::from_edges(VertexId n, std::vector<Edge> edges) {
  // Normalize and drop loops in place.
  std::size_t kept = 0;
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;
    const Edge ne = make_edge(e.u, e.v);
    ULTRA_CHECK_BOUNDS(ne.v < n)
        << "Graph::from_edges: endpoint id " << ne.v << " >= n = " << n;
    edges[kept++] = ne;
  }
  edges.resize(kept);
  sort_unique(n, edges);

  Graph g;
  g.edges_ = std::move(edges);
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : g.edges_) {
    ++g.offsets_[e.u + 1];
    ++g.offsets_[e.v + 1];
  }
  for (std::size_t i = 1; i < g.offsets_.size(); ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  // The edges arrive sorted by (u, v), so vertex x first receives its
  // smaller neighbors (x as v, in ascending u), then its larger ones (x as
  // u, in ascending v): every neighbor list comes out sorted.
  g.adjacency_.resize(2 * g.edges_.size());
  std::vector<std::uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Edge& e : g.edges_) {
    g.adjacency_[cursor[e.u]++] = e.v;
    g.adjacency_[cursor[e.v]++] = e.u;
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
