#include "apps/distance_oracle.h"

#include <algorithm>
#include <cmath>

#include "graph/bfs.h"

namespace ultra::apps {

using graph::VertexId;

DistanceOracle::DistanceOracle(const graph::Graph& g, std::uint64_t seed)
    : n_(g.num_vertices()) {
  util::Rng rng(seed);
  const double p =
      n_ > 1 ? 1.0 / std::sqrt(static_cast<double>(n_)) : 1.0;
  landmark_index_.assign(n_, graph::kUnreachable);
  for (VertexId v = 0; v < n_; ++v) {
    if (rng.bernoulli(p)) {
      landmark_index_[v] = static_cast<std::uint32_t>(landmarks_.size());
      landmarks_.push_back(v);
    }
  }
  // Degenerate safety: an empty sample would make every bunch the whole
  // graph; promote vertex 0 instead (matches the n^{-1/2} regime for tiny n).
  if (landmarks_.empty() && n_ > 0) {
    landmark_index_[0] = 0;
    landmarks_.push_back(0);
  }

  // Pivots via multi-source BFS (min-id tie-broken, like the paper's p_i).
  const auto ms = graph::multi_source_bfs(g, landmarks_);
  pivot_ = ms.nearest;
  pivot_dist_ = ms.dist;

  // Landmark rows.
  landmark_row_.reserve(landmarks_.size());
  for (const VertexId a : landmarks_) {
    landmark_row_.push_back(graph::bfs_distances(g, a));
    space_ += n_;
  }

  // Bunches: truncated BFS from each v up to d(v,A) - 1. Where v's
  // component has no landmark (limit == kUnreachable, e.g. every isolated
  // vertex of an R-MAT graph) the bunch is that whole component with exact
  // distances, and the search walks only the component.
  bunch_.assign(n_, {});
  std::vector<std::uint32_t> dist(n_, graph::kUnreachable);
  std::vector<VertexId> order;
  for (VertexId v = 0; v < n_; ++v) {
    const std::uint32_t limit = pivot_dist_[v];  // strictly closer than A
    if (limit == 0) continue;
    graph::bfs_visit(g, v, limit - 1, dist, order);
    for (const VertexId w : order) {
      if (w != v) bunch_[v].emplace(w, dist[w]);
    }
    space_ += bunch_[v].size() * 2;
    graph::bfs_reset(dist, order);
  }
  space_ += 2ull * n_;  // pivot id + pivot distance per vertex
}

double DistanceOracle::average_bunch_size() const {
  if (n_ == 0) return 0.0;
  std::uint64_t total = 0;
  for (const auto& b : bunch_) total += b.size();
  return static_cast<double>(total) / n_;
}

OracleAnswer DistanceOracle::query_traced(VertexId u, VertexId v) const {
  if (u == v) return {0, kViaBunch};
  // Exact if v lies in u's bunch (or vice versa).
  if (const auto it = bunch_[u].find(v); it != bunch_[u].end()) {
    return {it->second, kViaBunch};
  }
  if (const auto it = bunch_[v].find(u); it != bunch_[v].end()) {
    return {it->second, kViaBunch};
  }
  // Route through u's pivot or v's pivot, whichever is shorter. Distance
  // ties break toward the smaller landmark id — NOT toward whichever
  // candidate happens to be evaluated first — so the attribution is stable
  // across rebuilds and across this object vs its flattened serve image
  // (kInvalidVertex compares above every real landmark id, so the first
  // reachable candidate always displaces the unreachable initial state).
  OracleAnswer best;
  const auto consider = [&](VertexId x, VertexId y) {
    const VertexId landmark = pivot_[x];
    if (landmark == graph::kInvalidVertex) return;
    const auto& row = landmark_row_[landmark_index_[landmark]];
    if (row[y] == graph::kUnreachable) return;
    const std::uint32_t d = pivot_dist_[x] + row[y];
    if (d < best.dist || (d == best.dist && landmark < best.via)) {
      best = {d, landmark};
    }
  };
  consider(u, v);
  consider(v, u);
  return best;
}

std::vector<std::pair<VertexId, std::uint32_t>> DistanceOracle::bunch_sorted(
    VertexId v) const {
  std::vector<std::pair<VertexId, std::uint32_t>> out;
  out.reserve(bunch_[v].size());
  // NOLINTNEXTLINE(ultra-unordered-iter): collect-then-sort; order discarded
  for (const auto& [w, d] : bunch_[v]) out.emplace_back(w, d);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ultra::apps
