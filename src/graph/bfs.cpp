#include "graph/bfs.h"

#include <algorithm>
#include <bit>

#include "check/check.h"

namespace ultra::graph {

void bfs_visit(const Graph& g, VertexId source, std::uint32_t max_dist,
               std::span<std::uint32_t> dist, std::vector<VertexId>& order,
               std::span<VertexId> parent) {
  ULTRA_CHECK_BOUNDS(source < g.num_vertices())
      << "bfs: source " << source << " out of range";
  ULTRA_DCHECK(dist.size() == g.num_vertices() && order.empty() &&
               (parent.empty() || parent.size() == g.num_vertices()))
      << "bfs_visit: buffers must span the graph and order start empty";
  dist[source] = 0;
  order.push_back(source);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const VertexId v = order[head];
    if (dist[v] >= max_dist) continue;
    for (const VertexId w : g.neighbors(v)) {
      if (dist[w] == kUnreachable) {
        dist[w] = dist[v] + 1;
        if (!parent.empty()) parent[w] = v;
        order.push_back(w);
      }
    }
  }
}

void bfs_reset(std::span<std::uint32_t> dist, std::vector<VertexId>& order) {
  for (const VertexId v : order) dist[v] = kUnreachable;
  order.clear();
}

BfsResult bfs(const Graph& g, VertexId source, std::uint32_t max_dist) {
  BfsResult result;
  result.dist.assign(g.num_vertices(), kUnreachable);
  result.parent.assign(g.num_vertices(), kInvalidVertex);
  std::vector<VertexId> order;
  bfs_visit(g, source, max_dist, result.dist, order, result.parent);
  return result;
}

std::vector<std::uint32_t> bfs_distances(const Graph& g, VertexId source,
                                         std::uint32_t max_dist) {
  std::vector<std::uint32_t> dist(g.num_vertices(), kUnreachable);
  std::vector<VertexId> order;
  bfs_visit(g, source, max_dist, dist, order);
  return dist;
}

void bfs_distance_rows(const Graph& g, std::span<const VertexId> sources,
                       std::span<std::uint32_t> out) {
  const VertexId n = g.num_vertices();
  for (const VertexId s : sources) {
    ULTRA_CHECK_BOUNDS(s < n)
        << "bfs_distance_rows: source " << s << " out of range";
  }
  ULTRA_CHECK_ARG(out.size() == sources.size() * std::size_t{n})
      << "bfs_distance_rows: " << out.size() << " row cells for "
      << sources.size() << " sources over " << n << " vertices";
  std::fill(out.begin(), out.end(), kUnreachable);
  if (sources.empty()) return;

  // Bit i of a mask stands for the sweep's source i. `next` collects the
  // bits that reach a vertex in the level being scanned; they settle into
  // `seen` and `frontier` only after the whole level is scanned. A
  // vertex's `frontier` is read only while it is on the frontier list, and
  // joining the list rewrites it, so a finished level needs no clearing.
  struct Masks {
    std::uint64_t seen;
    std::uint64_t frontier;
    std::uint64_t next;
  };
  std::vector<Masks> masks(n);
  std::vector<VertexId> frontier;
  std::vector<VertexId> next;
  frontier.reserve(n);
  next.reserve(n);
  for (std::size_t base = 0; base < sources.size(); base += kBfsSweepWidth) {
    const auto sweep =
        sources.subspan(base, std::min(kBfsSweepWidth, sources.size() - base));
    std::uint32_t* const rows = out.data() + base * n;
    std::fill(masks.begin(), masks.end(), Masks{0, 0, 0});
    frontier.clear();
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      Masks& m = masks[sweep[i]];
      if (m.frontier == 0) frontier.push_back(sweep[i]);
      m.frontier |= std::uint64_t{1} << i;
      m.seen = m.frontier;
      rows[i * n + sweep[i]] = 0;
    }
    for (std::uint32_t level = 1; !frontier.empty(); ++level) {
      for (const VertexId v : frontier) {
        const std::uint64_t bits = masks[v].frontier;
        for (const VertexId w : g.neighbors(v)) {
          Masks& m = masks[w];
          const std::uint64_t fresh = bits & ~m.seen;
          if (fresh == 0) continue;
          if (m.next == 0) next.push_back(w);
          m.next |= fresh;
        }
      }
      for (const VertexId w : next) {
        Masks& m = masks[w];
        m.seen |= m.next;
        m.frontier = m.next;
        for (std::uint64_t bits = m.next; bits != 0; bits &= bits - 1) {
          rows[static_cast<std::size_t>(std::countr_zero(bits)) * n + w] =
              level;
        }
        m.next = 0;
      }
      frontier.swap(next);
      next.clear();
    }
  }
}

MultiSourceBfsResult multi_source_bfs(const Graph& g,
                                      std::span<const VertexId> sources,
                                      std::uint32_t max_dist) {
  const VertexId n = g.num_vertices();
  MultiSourceBfsResult result;
  result.dist.assign(n, kUnreachable);
  result.nearest.assign(n, kInvalidVertex);
  result.parent.assign(n, kInvalidVertex);

  // Layered BFS. Within each layer we process vertices and, for every newly
  // reached vertex w, set nearest[w] to the minimum nearest[] among its
  // already-settled predecessors. Processing the frontier after fully
  // settling the previous layer guarantees the min is over *all* shortest
  // predecessors, so nearest[w] is exactly the min-id source at distance
  // dist[w].
  std::vector<VertexId> frontier;
  for (const VertexId s : sources) {
    ULTRA_CHECK_BOUNDS(s < n)
        << "multi_source_bfs: source " << s << " out of range";
    if (result.dist[s] != kUnreachable) continue;
    result.dist[s] = 0;
    result.nearest[s] = s;
    frontier.push_back(s);
  }
  // Sources: nearest is itself regardless of id of other sources at distance
  // 0 (they are distinct vertices).
  std::uint32_t layer = 0;
  std::vector<VertexId> next;
  while (!frontier.empty() && layer < max_dist) {
    next.clear();
    for (const VertexId v : frontier) {
      for (const VertexId w : g.neighbors(v)) {
        if (result.dist[w] == kUnreachable) {
          result.dist[w] = layer + 1;
          result.nearest[w] = result.nearest[v];
          result.parent[w] = v;
          next.push_back(w);
        } else if (result.dist[w] == layer + 1 &&
                   result.nearest[v] < result.nearest[w]) {
          result.nearest[w] = result.nearest[v];
          result.parent[w] = v;
        }
      }
    }
    frontier.swap(next);
    ++layer;
  }
  return result;
}

std::vector<VertexId> shortest_path(const Graph& g, VertexId u, VertexId v) {
  const BfsResult r = bfs(g, u);
  if (r.dist[v] == kUnreachable) return {};
  std::vector<VertexId> path;
  for (VertexId x = v; x != kInvalidVertex; x = r.parent[x]) {
    path.push_back(x);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<VertexId> ball(const Graph& g, VertexId center,
                           std::uint32_t radius) {
  std::vector<std::uint32_t> dist(g.num_vertices(), kUnreachable);
  std::vector<VertexId> order;
  bfs_visit(g, center, radius, dist, order);
  return order;
}

std::uint32_t eccentricity(const Graph& g, VertexId source) {
  const auto dist = bfs_distances(g, source);
  std::uint32_t ecc = 0;
  for (const std::uint32_t d : dist) {
    if (d != kUnreachable) ecc = std::max(ecc, d);
  }
  return ecc;
}

std::uint32_t exact_diameter(const Graph& g) {
  std::uint32_t diameter = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    diameter = std::max(diameter, eccentricity(g, v));
  }
  return diameter;
}

std::uint32_t double_sweep_diameter_lb(const Graph& g, VertexId start) {
  if (g.num_vertices() == 0) return 0;
  const auto d1 = bfs_distances(g, start);
  VertexId far = start;
  std::uint32_t best = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (d1[v] != kUnreachable && d1[v] > best) {
      best = d1[v];
      far = v;
    }
  }
  return eccentricity(g, far);
}

}  // namespace ultra::graph
