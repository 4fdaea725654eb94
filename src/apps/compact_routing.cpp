#include "apps/compact_routing.h"

#include <algorithm>
#include <utility>

#include "check/check.h"
#include "graph/bfs.h"

namespace ultra::apps {

using graph::VertexId;

CompactRouting::CompactRouting(const graph::Graph& g, std::uint64_t seed)
    : n_(g.num_vertices()), lm_(sample_landmarks(g, seed)) {
  // One BFS tree per landmark, with DFS numbering + child intervals for
  // downward interval routing.
  trees_.resize(lm_.ids.size());
  for (std::size_t i = 0; i < lm_.ids.size(); ++i) {
    const VertexId root = lm_.ids[i];
    const auto bfs = graph::bfs(g, root);
    TreeState& tree = trees_[i];
    tree.parent = bfs.parent;
    tree.dfs_in.assign(n_, 0);
    tree.children.assign(n_, {});
    std::vector<std::vector<VertexId>> kids(n_);
    for (VertexId v = 0; v < n_; ++v) {
      if (bfs.parent[v] != graph::kInvalidVertex) {
        kids[bfs.parent[v]].push_back(v);
      }
    }
    // Iterative DFS computing in/out numbers.
    std::vector<std::uint32_t> dfs_out(n_, 0);
    std::uint32_t counter = 0;
    std::vector<std::pair<VertexId, std::size_t>> stack;
    if (bfs.dist[root] == 0) {
      stack.emplace_back(root, 0);
      tree.dfs_in[root] = counter++;
    }
    while (!stack.empty()) {
      auto& [v, next_child] = stack.back();
      if (next_child < kids[v].size()) {
        const VertexId c = kids[v][next_child++];
        tree.dfs_in[c] = counter++;
        stack.emplace_back(c, 0);
      } else {
        dfs_out[v] = counter;
        stack.pop_back();
      }
    }
    for (VertexId v = 0; v < n_; ++v) {
      for (const VertexId c : kids[v]) {
        tree.children[v].push_back(
            ChildInterval{c, tree.dfs_in[c], dfs_out[c]});
      }
    }
  }

  // Cluster tables: BFS from each w truncated at d(w,L) - 1 visits exactly
  // B(w) = { u : d(u,w) < d(w,L) }; its parent pointers at u point toward w.
  // One set of buffers serves every search: bfs_reset restores dist, and
  // parent is read only where the current search just wrote it. w ascends,
  // so each row is built sorted.
  cluster_next_.assign(n_, {});
  std::vector<std::uint32_t> dist(n_, graph::kUnreachable);
  std::vector<VertexId> parent(n_, graph::kInvalidVertex);
  std::vector<VertexId> order;
  for (VertexId w = 0; w < n_; ++w) {
    const std::uint32_t limit = lm_.pivot_dist[w];
    if (limit == 0) continue;  // w is a landmark: its tree covers routing
    graph::bfs_visit(g, w, limit - 1, dist, order, parent);
    for (auto it = order.begin() + 1; it != order.end(); ++it) {
      cluster_next_[*it].emplace_back(w, parent[*it]);  // order[0] is w
    }
    graph::bfs_reset(dist, order);
  }
}

CompactRouting::Address CompactRouting::address_of(VertexId v) const {
  ULTRA_CHECK_BOUNDS(v < n_) << "address_of(" << v << ") out of range n="
                             << n_;
  Address a;
  a.node = v;
  a.landmark = lm_.pivot[v];
  if (a.landmark != graph::kInvalidVertex) {
    a.dfs_number = trees_[lm_.row_of[a.landmark]].dfs_in[v];
  }
  return a;
}

CompactRouting::Route CompactRouting::route(VertexId u,
                                            const Address& dest) const {
  ULTRA_CHECK_BOUNDS(u < n_ && dest.node < n_)
      << "route (" << u << ", " << dest.node << ") out of range n=" << n_;
  ULTRA_CHECK_BOUNDS(dest.landmark == graph::kInvalidVertex ||
                     (dest.landmark < n_ &&
                      lm_.row_of[dest.landmark] != graph::kUnreachable))
      << "address landmark " << dest.landmark << " is not a landmark";
  Route out;
  out.path.push_back(u);
  const VertexId v = dest.node;
  if (u == v) {
    out.delivered = true;
    return out;
  }
  const std::size_t hop_limit = static_cast<std::size_t>(n_) * 4 + 16;
  VertexId cur = u;
  // Phase flags carried in the "packet header".
  bool toward_landmark = false;
  bool down_tree = false;
  while (out.path.size() <= hop_limit) {
    if (cur == v) {
      out.delivered = true;
      return out;
    }
    VertexId next = graph::kInvalidVertex;
    if (!toward_landmark && !down_tree) {
      // Direct mode: follow the cluster table if v is present (prefix
      // closure keeps it present along the whole shortest path).
      const auto& row = cluster_next_[cur];
      const auto it = std::lower_bound(
          row.begin(), row.end(), v,
          [](const auto& entry, VertexId x) { return entry.first < x; });
      if (it != row.end() && it->first == v) {
        next = it->second;
      } else if (dest.landmark != graph::kInvalidVertex) {
        toward_landmark = true;
        out.used_landmark = true;
      } else {
        return out;  // unreachable: no cluster entry and no landmark
      }
    }
    const TreeState* tree =
        dest.landmark != graph::kInvalidVertex
            ? &trees_[lm_.row_of[dest.landmark]]
            : nullptr;
    if (toward_landmark) {
      if (cur == dest.landmark) {
        toward_landmark = false;
        down_tree = true;
      } else {
        next = tree->parent[cur];
        if (next == graph::kInvalidVertex) return out;  // different component
      }
    }
    if (down_tree) {
      next = graph::kInvalidVertex;
      for (const ChildInterval& ci : tree->children[cur]) {
        if (ci.lo <= dest.dfs_number && dest.dfs_number < ci.hi) {
          next = ci.child;
          break;
        }
      }
      if (next == graph::kInvalidVertex) return out;  // bad address
    }
    if (next == graph::kInvalidVertex) return out;
    out.path.push_back(next);
    cur = next;
  }
  return out;  // loop guard tripped (should not happen)
}

std::uint64_t CompactRouting::table_words(VertexId v) const {
  std::uint64_t words = 2ull * cluster_next_[v].size();  // (dest, port)
  for (const TreeState& tree : trees_) {
    words += 1;                                  // parent port
    words += 3ull * tree.children[v].size();     // child intervals
  }
  words += 2;  // own pivot + distance
  return words;
}

double CompactRouting::average_table_words() const {
  if (n_ == 0) return 0.0;
  std::uint64_t total = 0;
  for (VertexId v = 0; v < n_; ++v) total += table_words(v);
  return static_cast<double>(total) / n_;
}

}  // namespace ultra::apps
