#include "baselines/dynamic_spanner.h"

#include <algorithm>
#include <utility>

#include "check/check.h"
#include "graph/bfs.h"

namespace ultra::baselines {

using graph::VertexId;

namespace {

// Whether {u, v} is an edge of `lists`, by a scan of the shorter endpoint
// list. An id past the vertex range is in no edge.
bool listed(const AdjacencyLists& lists, VertexId u, VertexId v) {
  if (u >= lists.size() || v >= lists.size()) return false;
  if (lists[u].size() > lists[v].size()) std::swap(u, v);
  return std::find(lists[u].begin(), lists[u].end(), v) != lists[u].end();
}

void remove_from(std::vector<VertexId>& list, VertexId x) {
  const auto it = std::find(list.begin(), list.end(), x);
  if (it != list.end()) {
    *it = list.back();
    list.pop_back();
  }
}

}  // namespace

DynamicSpanner::DynamicSpanner(VertexId n, unsigned k)
    : k_(k), adj_(n), spanner_adj_(n), reach_(n) {
  ULTRA_CHECK_ARG(k >= 1) << "DynamicSpanner: k must be >= 1";
}

bool DynamicSpanner::has_edge(VertexId u, VertexId v) const {
  return listed(adj_, u, v);
}

bool DynamicSpanner::in_spanner(VertexId u, VertexId v) const {
  return listed(spanner_adj_, u, v);
}

bool DynamicSpanner::spanner_reachable(VertexId u, VertexId v) const {
  return reach_.within(spanner_adj_, u, v, 2 * k_ - 1);
}

void DynamicSpanner::spanner_add(VertexId u, VertexId v) {
  spanner_adj_[u].push_back(v);
  spanner_adj_[v].push_back(u);
  ++spanner_m_;
}

void DynamicSpanner::spanner_remove(VertexId u, VertexId v) {
  remove_from(spanner_adj_[u], v);
  remove_from(spanner_adj_[v], u);
  --spanner_m_;
}

bool DynamicSpanner::insert(VertexId u, VertexId v) {
  ULTRA_CHECK_BOUNDS(u < adj_.size() && v < adj_.size())
      << "DynamicSpanner::insert: (" << u << "," << v << ") out of range";
  if (u == v || has_edge(u, v)) return false;
  adj_[u].push_back(v);
  adj_[v].push_back(u);
  ++m_;
  if (spanner_reachable(u, v)) return false;
  spanner_add(u, v);
  return true;
}

std::size_t DynamicSpanner::erase(VertexId u, VertexId v) {
  return erase_reported(u, v).promoted;
}

RepairReport DynamicSpanner::erase_reported(VertexId u, VertexId v) {
  ULTRA_CHECK_ARG(has_edge(u, v))
      << "DynamicSpanner::erase: edge (" << u << "," << v << ") not present";
  const bool was_spanner = in_spanner(u, v);

  // Candidate set BEFORE mutating the spanner: only edges with an endpoint
  // within 2k-2 spanner-hops of u (equivalently v: the balls overlap via the
  // deleted edge) can lose their last short certificate.
  RepairReport report;
  if (was_spanner) report.invalidated = invalidated_region(u, v);

  remove_from(adj_[u], v);
  remove_from(adj_[v], u);
  --m_;
  if (!was_spanner) return report;
  spanner_remove(u, v);

  report.promoted = patch(report.invalidated);
  return report;
}

std::vector<VertexId> DynamicSpanner::invalidated_region(VertexId u,
                                                         VertexId v) const {
  // One search from both endpoints yields ball(u) ∪ ball(v), each vertex once.
  std::vector<VertexId> region;
  const VertexId ends[] = {u, v};
  reach_.ball(spanner_adj_, ends, 2 * k_ - 1, region);
  std::sort(region.begin(), region.end());
  return region;
}

std::vector<VertexId> DynamicSpanner::drop_spanner_edge(VertexId u,
                                                        VertexId v) {
  ULTRA_CHECK_ARG(in_spanner(u, v))
      << "DynamicSpanner::drop_spanner_edge: (" << u << "," << v
      << ") not in the spanner";
  std::vector<VertexId> region = invalidated_region(u, v);
  spanner_remove(u, v);
  return region;
}

std::size_t DynamicSpanner::patch(const std::vector<VertexId>& region,
                                  const std::vector<bool>& unavailable) {
  ULTRA_CHECK_ARG(unavailable.empty() || unavailable.size() == adj_.size())
      << "DynamicSpanner::patch: unavailable mask has size "
      << unavailable.size() << ", expected 0 or " << adj_.size();
  for (const VertexId x : region) {
    ULTRA_CHECK_BOUNDS(x < adj_.size())
        << "DynamicSpanner::patch: region vertex " << x << " out of range";
  }
  const auto down = [&](VertexId x) {
    return !unavailable.empty() && unavailable[x];
  };
  // Re-offer every non-spanner edge incident to the affected region. A
  // single pass suffices: promotions only shorten spanner distances, so an
  // edge found satisfied stays satisfied.
  std::size_t promoted = 0;
  for (const VertexId x : region) {
    if (down(x)) continue;
    for (const VertexId y : adj_[x]) {
      if (x > y || down(y) || in_spanner(x, y)) continue;
      if (!spanner_reachable(x, y)) {
        spanner_add(x, y);
        ++promoted;
      }
    }
  }
  return promoted;
}

void DynamicSpanner::reseed_spanner(const std::vector<graph::Edge>& base) {
  for (auto& list : spanner_adj_) list.clear();
  spanner_m_ = 0;
  for (const graph::Edge& e : base) {
    if (!has_edge(e.u, e.v) || in_spanner(e.u, e.v)) continue;
    spanner_add(e.u, e.v);
  }
  // Greedy sweep of all remaining graph edges in deterministic order; one
  // pass suffices (promotions only shorten spanner distances).
  for (VertexId u = 0; u < adj_.size(); ++u) {
    for (const VertexId v : adj_[u]) {
      if (u > v || in_spanner(u, v)) continue;
      if (!spanner_reachable(u, v)) spanner_add(u, v);
    }
  }
}

graph::Graph DynamicSpanner::graph_snapshot() const {
  std::vector<graph::Edge> edges;
  edges.reserve(m_);
  for (VertexId u = 0; u < adj_.size(); ++u) {
    for (const VertexId v : adj_[u]) {
      if (u < v) edges.push_back(graph::Edge{u, v});
    }
  }
  return graph::Graph::from_edges(static_cast<VertexId>(adj_.size()),
                                  std::move(edges));
}

graph::Graph DynamicSpanner::spanner_snapshot() const {
  std::vector<graph::Edge> edges;
  edges.reserve(spanner_m_);
  for (VertexId u = 0; u < spanner_adj_.size(); ++u) {
    for (const VertexId v : spanner_adj_[u]) {
      if (u < v) edges.push_back(graph::Edge{u, v});
    }
  }
  return graph::Graph::from_edges(static_cast<VertexId>(spanner_adj_.size()),
                                  std::move(edges));
}

bool DynamicSpanner::invariant_holds() const {
  for (VertexId su = 0; su < spanner_adj_.size(); ++su) {
    for (const VertexId sv : spanner_adj_[su]) {
      if (su < sv && !has_edge(su, sv)) return false;  // must be a subgraph
    }
  }
  // Stretch: a truncated graph::bfs_visit on the snapshot, not reach_, so a
  // defect in the filter's search cannot hide from this check.
  const graph::Graph spanner = spanner_snapshot();
  const std::uint32_t limit = 2 * k_ - 1;
  std::vector<std::uint32_t> dist(adj_.size(), graph::kUnreachable);
  std::vector<VertexId> order;
  for (VertexId u = 0; u < adj_.size(); ++u) {
    graph::bfs_visit(spanner, u, limit, dist, order);
    for (const VertexId v : adj_[u]) {
      if (dist[v] > limit) return false;
    }
    graph::bfs_reset(dist, order);
  }
  return true;
}

}  // namespace ultra::baselines
