#include "spanner/spanner.h"

#include "check/check.h"

namespace ultra::spanner {

bool Spanner::add_edge(VertexId u, VertexId v) {
  const graph::EdgeId arc = host_->find_arc(u, v);
  ULTRA_CHECK_ARG(arc != Graph::kNoArc)
      << "Spanner::add_edge: (" << u << "," << v << ") is not a host edge";
  if (member_[arc] != 0) return false;
  member_[arc] = 1;
  edges_.push_back(graph::make_edge(u, v));
  return true;
}

void Spanner::add_all_incident(VertexId v) {
  for (const VertexId w : host_->neighbors(v)) add_edge(v, w);
}

Graph Spanner::to_graph() const {
  return Graph::from_edges(host_->num_vertices(),
                           std::vector<Edge>(edges_.begin(), edges_.end()));
}

}  // namespace ultra::spanner
