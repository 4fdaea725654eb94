// Fully dynamic (2k-1)-spanner maintenance (Section 1.4 of the paper cites
// Baswana–Sarkar [8] and Elkin [20,21] for dynamic spanners; Elkin [20]
// adapts his to the distributed setting).
//
// This implementation is correctness-first: the stretch invariant — every
// current non-spanner edge is bridged by a spanner path of <= 2k-1 hops —
// is maintained exactly under arbitrary interleaved insertions and
// deletions. Insertion is the greedy filter: one bidirectional search for a
// spanner path of at most 2k-1 hops (baselines/hop_reach.h), which meets in
// the middle when the path exists and costs O(ball(2k-1)) at worst.
//
// Deleting a spanner edge (u,v) triggers a local repair. An edge that loses
// its last short path had one through (u,v), x ~ u - v ~ y in at most 2k-1
// hops, so both of its endpoints lie within 2k-2 spanner-hops of u or v.
// The invalidated region is nevertheless the (2k-1)-hop ball around u and v,
// measured before the delete: it is what RepairReport::invalidated and
// drop_spanner_edge report to the maintenance layer, and the goldens pin it.
// The repair walks the non-spanner edges incident to that region.
//
// Certified state: certified() says whether the invariant is known to hold.
// Construction and reseed_spanner set it, and insert keeps it.
// drop_spanner_edge (fault damage, no repair) clears it and marks the
// vertices of its region; a patch() whose region covers every marked vertex,
// with none of its vertices unavailable, sets it again. The erase repair is
// a patch() of its region: on a certified overlay it searches only the
// candidates whose short path could have run through (u,v) (erase_reported
// says why the rest need no search); on an uncertified one it re-offers
// every candidate.
//
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
  // non-spanner edge invalidates nothing (empty report). Deleting a spanner
  // edge re-offers the region's non-spanner edges in patch() order; on a
  // certified overlay it passes over every candidate (x, y) whose hop sums
  // d(x,u)+d(v,y) and d(x,v)+d(u,y), in the spanner before the delete, are
  // both at least 2k-1. Such an edge's short path avoids (u,v), so its
  // search would answer yes: the decisions and promotions are unchanged.
  RepairReport erase_reported(graph::VertexId u, graph::VertexId v);

  // Remove (u, v) from the spanner WITHOUT touching the underlying graph and
  // WITHOUT repairing — this models fault damage (a crashed endpoint or link
  // outage knocks the edge out of the overlay) rather than churn. Returns the
  // invalidated region (as in erase_reported) so the caller can patch() it
  // later; the stretch invariant is intentionally broken until then, and
  // certified() is false. Throws if the edge is not currently in the
  // spanner.
  [[nodiscard]] std::vector<graph::VertexId> drop_spanner_edge(
      graph::VertexId u, graph::VertexId v);

  // Repair pass over `region`: re-offer every non-spanner edge with an
  // endpoint in the region to the greedy filter. `unavailable` (empty, or
  // size n) marks vertices that cannot participate — edges touching them are
  // not re-offered (a crashed node cannot ack a promotion). Returns the
  // number of promoted edges. After patching with no unavailable vertices,
  // the invariant holds on the region provided it held outside it; when the
  // region also covers every vertex of the regions dropped since the overlay
  // was last certified, certified() is true again. On a certified overlay
  // every such edge already has its short path, so no search runs (but the
  // ones erase_reported's hop-sum test keeps). Throws std::out_of_range if a
  // region vertex is not a vertex id.
  std::size_t patch(const std::vector<graph::VertexId>& region,
                    const std::vector<bool>& unavailable = {});

  // Discard the current spanner and rebuild around `base`: every base edge
  // that exists in the graph is adopted unconditionally, then all remaining
  // graph edges are swept through the greedy filter in deterministic
  // (vertex, insertion) order. Used when an external rebuild (the supervised
  // fallback chain) produced a replacement overlay that must be re-seated
  // under the exact 2k-1 invariant. Leaves certified() true.
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

  // Whether every non-spanner edge is known to have a spanner path of at
  // most 2k-1 hops (see the file comment). True implies invariant_holds().
  [[nodiscard]] bool certified() const noexcept { return certified_; }

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

  // See certified(). `marked_` is the union of the regions dropped since it
  // was last true, sorted and duplicate-free.
  bool certified_ = true;
  std::vector<graph::VertexId> marked_;

  // Spanner hop distances from the two ends of the spanner edge being
  // erased, out to 2k-2, and 2k-1 for every vertex farther or between
  // erases, which patch() reads; `reached_` lists the entries to restore.
  std::vector<std::uint32_t> hops_[2];
  std::vector<graph::VertexId> reached_;
};

}  // namespace ultra::baselines
