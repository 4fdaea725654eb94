// Hop-bounded reachability: the one search behind the greedy (2k-1)-filters
// (greedy_spanner and DynamicSpanner). Each filter decision
// asks "is dist_H(u, v) <= 2k-1 in the current spanner H?", and most of
// those asks answer yes, so the search is bidirectional: it grows a ball
// around each endpoint one BFS level at a time, always expanding the side
// whose frontier is smaller, and stops as soon as a scanned neighbour is
// already on the other side. A yes then stops at two balls of about half the
// radius instead of one of the full radius. The boolean is exactly the
// one-sided BFS's, so every keep, discard and promotion is unchanged.
//
// DynamicSpanner also asks two truncated BFS questions of the same scratch:
// the region a spanner-edge delete or drop invalidates (ball), and the hop
// distances from the two ends of an erased spanner edge (distances), which
// tell its repair which candidates' short paths could have used that edge.
//
// Internal to the baselines: the filters own one HopReach each and reuse it
// across queries, so a query allocates nothing once the buffers have grown.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace ultra::baselines {

// An undirected graph as one neighbour list per vertex.
using AdjacencyLists = std::vector<std::vector<graph::VertexId>>;

class HopReach {
 public:
  // Scratch for searches over graphs on `n` vertices.
  explicit HopReach(graph::VertexId n) : mark_(n, 0) {}

  // Whether dist_adj(u, v) <= limit; u == v counts as reachable.
  //
  // Level-synchronous: after the two sides have grown to radii ra and rb
  // without meeting, ball(u, ra) and ball(v, rb) are disjoint, so
  // dist(u, v) > ra + rb. Growing a side by one level scans the neighbours
  // of its frontier; one carrying the other side's mark closes a path of at
  // most ra + rb + 1 <= limit hops. The search answers false once
  // ra + rb == limit, or once a frontier empties (that side's component is
  // exhausted without reaching the other endpoint).
  [[nodiscard]] bool within(const AdjacencyLists& adj, graph::VertexId u,
                            graph::VertexId v, std::uint32_t limit) {
    if (u == v) return true;
    stamp_ += 2;
    const std::uint64_t side_mark[2] = {stamp_ - 1, stamp_};
    mark_[u] = side_mark[0];
    mark_[v] = side_mark[1];
    seen_[0].assign(1, u);
    seen_[1].assign(1, v);
    // seen_[s][head[s]..] is side s's frontier; the prefix before it has
    // been expanded.
    std::size_t head[2] = {0, 0};
    for (std::uint32_t radii = 0; radii < limit; ++radii) {
      const int s = seen_[0].size() - head[0] <= seen_[1].size() - head[1]
                        ? 0
                        : 1;
      std::vector<graph::VertexId>& seen = seen_[s];
      const std::size_t end = seen.size();
      if (head[s] == end) return false;
      for (; head[s] < end; ++head[s]) {
        for (const graph::VertexId w : adj[seen[head[s]]]) {
          if (mark_[w] == side_mark[1 - s]) return true;
          if (mark_[w] != side_mark[s]) {
            mark_[w] = side_mark[s];
            seen.push_back(w);
          }
        }
      }
    }
    return false;
  }

  // Appends to `out`, once each and in BFS order, every vertex within
  // `radius` hops of some vertex in `sources`.
  void ball(const AdjacencyLists& adj,
            std::span<const graph::VertexId> sources, std::uint32_t radius,
            std::vector<graph::VertexId>& out) {
    stamp_ += 2;
    std::size_t head = out.size();
    for (const graph::VertexId s : sources) {
      if (mark_[s] == stamp_) continue;
      mark_[s] = stamp_;
      out.push_back(s);
    }
    for (std::uint32_t r = 0; r < radius && head < out.size(); ++r) {
      for (const std::size_t end = out.size(); head < end; ++head) {
        for (const graph::VertexId w : adj[out[head]]) {
          if (mark_[w] == stamp_) continue;
          mark_[w] = stamp_;
          out.push_back(w);
        }
      }
    }
  }

  // Sets dist[w] = dist_adj(source, w) for every vertex w within `radius`
  // hops of `source`, and appends each such w to `reached` in BFS order.
  // Every other entry of `dist` keeps its value, so a caller that keeps
  // `dist` above `radius` reads an untouched entry as "farther than radius"
  // and restores only the entries `reached` lists.
  void distances(const AdjacencyLists& adj, graph::VertexId source,
                 std::uint32_t radius, std::vector<std::uint32_t>& dist,
                 std::vector<graph::VertexId>& reached) {
    stamp_ += 2;
    std::size_t head = reached.size();
    mark_[source] = stamp_;
    dist[source] = 0;
    reached.push_back(source);
    for (std::uint32_t r = 1; r <= radius && head < reached.size(); ++r) {
      for (const std::size_t end = reached.size(); head < end; ++head) {
        for (const graph::VertexId w : adj[reached[head]]) {
          if (mark_[w] == stamp_) continue;
          mark_[w] = stamp_;
          dist[w] = r;
          reached.push_back(w);
        }
      }
    }
  }

 private:
  // Per-vertex stamp of the last search that reached it. A query takes the
  // next two stamps; 64 bits never wrap in a feasible run, so a stale mark
  // can never equal a live one.
  std::vector<std::uint64_t> mark_;
  std::uint64_t stamp_ = 0;
  std::vector<graph::VertexId> seen_[2];  // per side, in discovery order
};

}  // namespace ultra::baselines
