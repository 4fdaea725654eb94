// Streaming (2k-1)-spanner (Section 1.4 of the paper cites Elkin [21] and
// Baswana [5] for spanners in the online streaming model: edges arrive one
// at a time and only O(n^{1+1/k}) edges may be kept in memory).
//
// This is the classical online greedy filter: keep an arriving edge (u,v)
// iff the current spanner's u-v distance exceeds 2k-1. The kept subgraph has
// girth > 2k at all times, hence size O(n^{1+1/k}) by the Moore bound, and
// is a (2k-1)-spanner of the prefix stream — for every discarded edge a
// <= (2k-1)-hop path existed at discard time and spanner edges are never
// removed. Per-edge processing is one bidirectional search for a path of at
// most 2k-1 hops in the spanner (baselines/hop_reach.h), which meets in the
// middle when such a path exists (Baswana's O(1)-expected-time clustering
// variant trades this for randomization; the greedy filter is the
// deterministic memory-optimal baseline).
#pragma once

#include <cstdint>
#include <vector>

#include "baselines/hop_reach.h"
#include "graph/graph.h"

namespace ultra::baselines {

class StreamingSpanner {
 public:
  // n: number of vertices; k: stretch parameter (stretch 2k-1).
  StreamingSpanner(graph::VertexId n, unsigned k);

  // Process one arriving edge; returns true if it was kept.
  bool offer(graph::VertexId u, graph::VertexId v);

  [[nodiscard]] std::uint64_t edges_kept() const noexcept { return kept_; }
  [[nodiscard]] std::uint64_t edges_seen() const noexcept { return seen_; }
  [[nodiscard]] graph::VertexId num_vertices() const noexcept {
    return static_cast<graph::VertexId>(adjacency_.size());
  }

  // The kept subgraph as a Graph.
  [[nodiscard]] graph::Graph snapshot() const;

 private:
  unsigned k_;
  std::uint64_t kept_ = 0;
  std::uint64_t seen_ = 0;
  AdjacencyLists adjacency_;
  HopReach reach_;  // dist <= 2k-1 search scratch, reused across offers
};

}  // namespace ultra::baselines
