// Spanner representation: a subgraph (edge subset) of a host graph, plus the
// (alpha, beta) vocabulary of the paper. A subgraph S of G is an
// (alpha, beta)-spanner if dist_S(u,v) <= alpha * dist_G(u,v) + beta for all
// u, v. An (alpha, 0)-spanner is an alpha-spanner; a (1, beta)-spanner is an
// additive beta-spanner; a connectivity-preserving subgraph with O(n) edges
// is a "skeleton".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace ultra::spanner {

using graph::Edge;
using graph::Graph;
using graph::VertexId;

class Spanner {
 public:
  // The spanner holds a reference to its host graph; the host must outlive
  // the spanner.
  explicit Spanner(const Graph& host)
      : host_(&host), member_(2 * host.num_edges(), 0) {}

  // Adds edge (u,v); must be an edge of the host graph. Idempotent.
  void add_edge(VertexId u, VertexId v);
  void add_edge(const Edge& e) { add_edge(e.u, e.v); }

  // Adds every edge of a path given as a vertex sequence.
  void add_path(std::span<const VertexId> path);

  // Adds all host edges incident to v (the paper's failure-recovery action:
  // "include all adjacent edges in the spanner").
  void add_all_incident(VertexId v);

  [[nodiscard]] bool contains(VertexId u, VertexId v) const {
    const graph::EdgeId arc = host_->find_arc(u, v);
    return arc != Graph::kNoArc && member_[arc] != 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return edges_.size(); }
  [[nodiscard]] std::span<const Edge> edges() const noexcept { return edges_; }
  [[nodiscard]] const Graph& host() const noexcept { return *host_; }

  // Materialize the spanner as a Graph on the same vertex set.
  [[nodiscard]] Graph to_graph() const;

  // Size relative to n (the paper reports spanner sizes as multiples of n).
  [[nodiscard]] double edges_per_vertex() const noexcept {
    return host_->num_vertices() == 0
               ? 0.0
               : static_cast<double>(size()) / host_->num_vertices();
  }

 private:
  const Graph* host_;
  std::vector<Edge> edges_;  // insertion order — the observable edge sequence
  // member_[host_->find_arc(u, v)] != 0 iff (u, v) is in edges_: one byte
  // per host arc, allocated with the spanner, so adding and testing an edge
  // is one search of the host's adjacency and no allocation.
  std::vector<std::uint8_t> member_;
};

}  // namespace ultra::spanner
