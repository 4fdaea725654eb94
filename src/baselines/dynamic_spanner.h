// Fully dynamic (2k-1)-spanner maintenance (Section 1.4 of the paper cites
// Baswana–Sarkar [8] and Elkin [20,21] for dynamic spanners; Elkin [20]
// adapts his to the distributed setting).
//
// This implementation is correctness-first: the stretch invariant — every
// current non-spanner edge is bridged by a spanner path of <= 2k-1 hops —
// is maintained exactly under arbitrary interleaved insertions and
// deletions. Insertion is the greedy filter: one bidirectional search for a
// spanner path of at most 2k-1 hops (baselines/hop_reach.h), which meets in
// the middle when the path exists and costs O(ball(2k-1)) at worst. Deleting
// a spanner edge (u,v) triggers a local repair: only edges with an endpoint
// within 2k-2 spanner-hops of u or v can have lost their last short
// certificate path (any <= (2k-1)-hop path through (u,v) stays inside that
// ball), so exactly those non-spanner edges are re-offered to the filter.
// The amortized update-time and size guarantees of [8,20] require their
// cluster-decomposition machinery and are out of scope; empirically the
// maintained spanner stays near the static greedy size (see the ablation
// bench).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "baselines/hop_reach.h"
#include "graph/graph.h"

namespace ultra::baselines {

// What a deletion repair touched: the set of vertices whose local spanner
// neighbourhood may have changed (the union of the 2k-1 spanner balls around
// the deleted edge's endpoints, measured BEFORE the mutation), plus how many
// formerly-discarded edges the repair promoted. The invalidated list is
// sorted and duplicate-free; maintenance layers use it to decide which
// clusters need re-certification.
struct RepairReport {
  std::vector<graph::VertexId> invalidated;
  std::size_t promoted = 0;
};

class DynamicSpanner {
 public:
  DynamicSpanner(graph::VertexId n, unsigned k);

  // Insert an edge (no-op if already present). Returns true if the edge
  // entered the spanner.
  bool insert(graph::VertexId u, graph::VertexId v);

  // Delete an existing edge. Returns the number of formerly-discarded edges
  // promoted into the spanner by the repair. Throws if the edge is absent.
  std::size_t erase(graph::VertexId u, graph::VertexId v);

  // As erase(), but also reports the invalidated region. Deleting a
  // non-spanner edge invalidates nothing (empty report).
  RepairReport erase_reported(graph::VertexId u, graph::VertexId v);

  // Remove (u, v) from the spanner WITHOUT touching the underlying graph and
  // WITHOUT repairing — this models fault damage (a crashed endpoint or link
  // outage knocks the edge out of the overlay) rather than churn. Returns the
  // invalidated region (as in erase_reported) so the caller can patch() it
  // later; the stretch invariant is intentionally broken until then. Throws
  // if the edge is not currently in the spanner.
  [[nodiscard]] std::vector<graph::VertexId> drop_spanner_edge(
      graph::VertexId u, graph::VertexId v);

  // Repair pass over `region`: re-offer every non-spanner edge with an
  // endpoint in the region to the greedy filter. `unavailable` (empty, or
  // size n) marks vertices that cannot participate — edges touching them are
  // not re-offered (a crashed node cannot ack a promotion). Returns the
  // number of promoted edges. After patching with no unavailable vertices,
  // the invariant holds on the region provided it held outside it. Throws
  // std::out_of_range if a region vertex is not a vertex id.
  std::size_t patch(const std::vector<graph::VertexId>& region,
                    const std::vector<bool>& unavailable = {});

  // Discard the current spanner and rebuild around `base`: every base edge
  // that exists in the graph is adopted unconditionally, then all remaining
  // graph edges are swept through the greedy filter in deterministic
  // (vertex, insertion) order. Used when an external rebuild (the supervised
  // fallback chain) produced a replacement overlay that must be re-seated
  // under the exact 2k-1 invariant.
  void reseed_spanner(const std::vector<graph::Edge>& base);

  // Membership, by a scan of the shorter endpoint list. False when an id is
  // not a vertex id.
  [[nodiscard]] bool has_edge(graph::VertexId u, graph::VertexId v) const;
  [[nodiscard]] bool in_spanner(graph::VertexId u, graph::VertexId v) const;

  // v's current spanner neighbours, in promotion order. Invalidated by any
  // mutation — copy before a loop that drops edges.
  [[nodiscard]] std::span<const graph::VertexId> spanner_neighbors(
      graph::VertexId v) const {
    return spanner_adj_[v];
  }

  [[nodiscard]] unsigned k() const noexcept { return k_; }
  [[nodiscard]] graph::VertexId vertex_count() const noexcept {
    return static_cast<graph::VertexId>(adj_.size());
  }
  [[nodiscard]] std::uint64_t graph_size() const noexcept { return m_; }
  [[nodiscard]] std::uint64_t spanner_size() const noexcept {
    return spanner_m_;
  }

  [[nodiscard]] graph::Graph graph_snapshot() const;
  [[nodiscard]] graph::Graph spanner_snapshot() const;

  // Exhaustive invariant check (test hook): every non-spanner edge has a
  // spanner path of <= 2k-1 hops, and the spanner is a subgraph. Measured
  // with graph::bfs_visit on spanner_snapshot(), independently of the
  // filter's own search.
  [[nodiscard]] bool invariant_holds() const;

 private:
  [[nodiscard]] std::vector<graph::VertexId> invalidated_region(
      graph::VertexId u, graph::VertexId v) const;
  [[nodiscard]] bool spanner_reachable(graph::VertexId u,
                                       graph::VertexId v) const;
  void spanner_add(graph::VertexId u, graph::VertexId v);
  void spanner_remove(graph::VertexId u, graph::VertexId v);

  unsigned k_;
  std::uint64_t m_ = 0;
  std::uint64_t spanner_m_ = 0;
  // Each edge is listed at both of its endpoints. The lists are unsorted:
  // their order reaches patch(), reseed_spanner() and spanner_neighbors().
  // has_edge and in_spanner scan the shorter of the two.
  AdjacencyLists adj_;          // full graph
  AdjacencyLists spanner_adj_;  // spanner only

  // Search scratch for the filter and the invalidated-region balls
  // (mutable: used by const queries).
  mutable HopReach reach_;
};

}  // namespace ultra::baselines
