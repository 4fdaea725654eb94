#include "baselines/streaming.h"

#include "check/check.h"

namespace ultra::baselines {

using graph::VertexId;

StreamingSpanner::StreamingSpanner(VertexId n, unsigned k)
    : k_(k), adjacency_(n), reach_(n) {
  ULTRA_CHECK_ARG(k >= 1) << "StreamingSpanner: k must be >= 1";
}

bool StreamingSpanner::offer(VertexId u, VertexId v) {
  ULTRA_CHECK_BOUNDS(u < adjacency_.size() && v < adjacency_.size())
      << "StreamingSpanner::offer: (" << u << "," << v << ") out of range";
  ++seen_;
  if (u == v || reach_.within(adjacency_, u, v, 2 * k_ - 1)) return false;
  adjacency_[u].push_back(v);
  adjacency_[v].push_back(u);
  ++kept_;
  return true;
}

graph::Graph StreamingSpanner::snapshot() const {
  std::vector<graph::Edge> edges;
  edges.reserve(kept_);
  for (VertexId u = 0; u < adjacency_.size(); ++u) {
    for (const VertexId v : adjacency_[u]) {
      if (u < v) edges.push_back(graph::Edge{u, v});
    }
  }
  return graph::Graph::from_edges(
      static_cast<VertexId>(adjacency_.size()), std::move(edges));
}

}  // namespace ultra::baselines
