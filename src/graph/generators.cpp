#include "graph/generators.h"

#include <algorithm>
#include <bit>

#include "check/check.h"

namespace ultra::graph {

namespace {

// Number of possible edges, saturating at uint64 max (n <= 2^32).
std::uint64_t max_edges(VertexId n) {
  return static_cast<std::uint64_t>(n) * (n - 1) / 2;
}

// Appends the G(n, m) draw to `edges`: uniform random pairs until m
// distinct edges (m clamped to C(n, 2)) are accepted, in draw order. Seen
// edges live in one open-addressing table of packed edge keys with a
// power-of-two capacity >= 2m. Key 0 would be the loop (0, 0), which is
// never inserted, so 0 marks an empty slot.
void append_gnm(VertexId n, std::uint64_t m, util::Rng& rng,
                std::vector<Edge>& edges) {
  if (n < 2) return;
  m = std::min(m, max_edges(n));
  // Reserved first: an m past max_size() throws here, before 2m can leave
  // the range bit_ceil is defined on.
  edges.reserve(edges.size() + m);
  std::vector<std::uint64_t> seen(std::bit_ceil(2 * m));
  const std::uint64_t mask = seen.size() - 1;
  for (std::uint64_t accepted = 0; accepted < m;) {
    const auto a = static_cast<VertexId>(rng.next_below(n));
    const auto b = static_cast<VertexId>(rng.next_below(n));
    if (a == b) continue;
    const Edge e = make_edge(a, b);
    const std::uint64_t key = edge_key(e);
    std::uint64_t slot = util::mix64(key) & mask;
    while (seen[slot] != 0 && seen[slot] != key) slot = (slot + 1) & mask;
    if (seen[slot] == key) continue;
    seen[slot] = key;
    edges.push_back(e);
    ++accepted;
  }
}

}  // namespace

Graph erdos_renyi_gnm(VertexId n, std::uint64_t m, util::Rng& rng) {
  std::vector<Edge> edges;
  append_gnm(n, m, rng, edges);
  return Graph::from_edges(n, std::move(edges));
}

Graph connected_gnm(VertexId n, std::uint64_t m, util::Rng& rng) {
  if (n == 0) return Graph();
  std::vector<Edge> edges;
  edges.reserve(n - 1);
  // Random attachment tree for connectivity.
  std::vector<VertexId> order(n);
  for (VertexId i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(order);
  for (VertexId i = 1; i < n; ++i) {
    const VertexId anchor = order[rng.next_below(i)];
    edges.push_back(make_edge(order[i], anchor));
  }
  append_gnm(n, m, rng, edges);
  return Graph::from_edges(n, std::move(edges));
}

Graph random_regular(VertexId n, std::uint32_t d, util::Rng& rng) {
  if (n == 0 || d == 0) return Graph::from_edges(n, {});
  std::vector<VertexId> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * d);
  for (VertexId v = 0; v < n; ++v) {
    for (std::uint32_t i = 0; i < d; ++i) stubs.push_back(v);
  }
  rng.shuffle(stubs);
  std::vector<Edge> edges;
  edges.reserve(stubs.size() / 2);
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    if (stubs[i] != stubs[i + 1]) {
      edges.push_back(make_edge(stubs[i], stubs[i + 1]));
    }
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph random_tree(VertexId n, util::Rng& rng) {
  if (n == 0) return Graph();
  std::vector<Edge> edges;
  edges.reserve(n > 0 ? n - 1 : 0);
  for (VertexId v = 1; v < n; ++v) {
    const auto anchor = static_cast<VertexId>(rng.next_below(v));
    edges.push_back(make_edge(v, anchor));
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph preferential_attachment(VertexId n, std::uint32_t k, util::Rng& rng) {
  if (n == 0) return Graph();
  std::vector<Edge> edges;
  // Endpoint pool: each edge contributes both endpoints, so sampling a pool
  // element is degree-proportional sampling.
  std::vector<VertexId> pool;
  // This vertex's distinct targets, sorted: the order they enter the edge
  // list and the pool, which biases later degree-proportional draws.
  std::vector<VertexId> chosen;
  for (VertexId v = 1; v < n; ++v) {
    const std::uint32_t links = std::min<std::uint32_t>(k, v);
    chosen.clear();
    while (chosen.size() < links) {
      VertexId target;
      if (pool.empty() || rng.bernoulli(0.2)) {
        target = static_cast<VertexId>(rng.next_below(v));
      } else {
        target = pool[rng.next_below(pool.size())];
      }
      if (target == v) continue;
      const auto it = std::lower_bound(chosen.begin(), chosen.end(), target);
      if (it == chosen.end() || *it != target) chosen.insert(it, target);
    }
    for (const VertexId t : chosen) {
      edges.push_back(make_edge(v, t));
      pool.push_back(v);
      pool.push_back(t);
    }
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph rmat_graph(VertexId n, std::uint64_t m, util::Rng& rng, double a,
                 double b, double c) {
  ULTRA_CHECK_ARG(n > 0 && (n & (n - 1)) == 0)
      << "rmat_graph: n = " << n << " must be a power of two";
  ULTRA_CHECK_ARG(a >= 0.0 && b >= 0.0 && c >= 0.0 && a + b + c <= 1.0)
      << "rmat_graph: quadrant probabilities must be nonnegative and "
         "a + b + c <= 1";
  if (n < 2) return Graph::from_edges(n, {});
  std::uint32_t levels = 0;
  while ((VertexId{1} << levels) < n) ++levels;

  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(m));
  for (std::uint64_t i = 0; i < m; ++i) {
    VertexId u = 0;
    VertexId v = 0;
    for (std::uint32_t level = 0; level < levels; ++level) {
      // Per-level ±10% multiplicative noise on (a, b, c), renormalized — the
      // standard R-MAT smoothing; all draws come from the seeded Rng.
      const double na = a * (0.9 + 0.2 * rng.next_double());
      const double nb = b * (0.9 + 0.2 * rng.next_double());
      const double nc = c * (0.9 + 0.2 * rng.next_double());
      const double nd = (1.0 - a - b - c) * (0.9 + 0.2 * rng.next_double());
      const double norm = na + nb + nc + nd;
      const double r = rng.next_double() * (norm > 0.0 ? norm : 1.0);
      // Quadrants a, b, c, d are (u, v) bits 00, 01, 10, 11. The three cuts
      // never decrease (IEEE addition of a nonnegative value never lowers a
      // sum), so r's quadrant is the number of cuts it reaches: u's bit is
      // "reaches the second", v's bit is that count's parity.
      const bool past_a = r >= na;
      const bool past_b = r >= na + nb;
      const bool past_c = r >= na + nb + nc;
      u = u << 1 | VertexId{past_b};
      v = v << 1 | static_cast<VertexId>(past_a ^ past_b ^ past_c);
    }
    if (u == v) continue;  // drop self-loops; duplicates collapse later
    edges.push_back(make_edge(u, v));
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph path_graph(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId v = 1; v < n; ++v) edges.push_back(Edge{v - 1, v});
  return Graph::from_edges(n, std::move(edges));
}

Graph cycle_graph(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId v = 1; v < n; ++v) edges.push_back(Edge{v - 1, v});
  if (n >= 3) edges.push_back(make_edge(n - 1, 0));
  return Graph::from_edges(n, std::move(edges));
}

Graph complete_graph(VertexId n) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) edges.push_back(Edge{u, v});
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph complete_bipartite(VertexId a, VertexId b) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(a) * b);
  for (VertexId u = 0; u < a; ++u) {
    for (VertexId v = 0; v < b; ++v) {
      edges.push_back(Edge{u, static_cast<VertexId>(a + v)});
    }
  }
  return Graph::from_edges(a + b, std::move(edges));
}

Graph grid_graph(VertexId width, VertexId height) {
  std::vector<Edge> edges;
  auto id = [width](VertexId x, VertexId y) { return y * width + x; };
  for (VertexId y = 0; y < height; ++y) {
    for (VertexId x = 0; x < width; ++x) {
      if (x + 1 < width) edges.push_back(Edge{id(x, y), id(x + 1, y)});
      if (y + 1 < height) edges.push_back(Edge{id(x, y), id(x, y + 1)});
    }
  }
  return Graph::from_edges(width * height, std::move(edges));
}

Graph torus_graph(VertexId width, VertexId height) {
  std::vector<Edge> edges;
  auto id = [width](VertexId x, VertexId y) { return y * width + x; };
  for (VertexId y = 0; y < height; ++y) {
    for (VertexId x = 0; x < width; ++x) {
      edges.push_back(make_edge(id(x, y), id((x + 1) % width, y)));
      edges.push_back(make_edge(id(x, y), id(x, (y + 1) % height)));
    }
  }
  return Graph::from_edges(width * height, std::move(edges));
}

Graph hypercube(std::uint32_t dims) {
  ULTRA_CHECK_BOUNDS(dims < 31) << "hypercube: dims too large";
  const VertexId n = VertexId{1} << dims;
  std::vector<Edge> edges;
  for (VertexId v = 0; v < n; ++v) {
    for (std::uint32_t b = 0; b < dims; ++b) {
      const VertexId w = v ^ (VertexId{1} << b);
      if (v < w) edges.push_back(Edge{v, w});
    }
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph ring_of_cliques(VertexId count, VertexId clique_size) {
  std::vector<Edge> edges;
  const VertexId n = count * clique_size;
  for (VertexId c = 0; c < count; ++c) {
    const VertexId base = c * clique_size;
    for (VertexId i = 0; i < clique_size; ++i) {
      for (VertexId j = i + 1; j < clique_size; ++j) {
        edges.push_back(Edge{base + i, base + j});
      }
    }
    if (count > 1) {
      const VertexId next_base = ((c + 1) % count) * clique_size;
      // Connect last vertex of this clique to first of the next.
      edges.push_back(
          make_edge(base + clique_size - 1, next_base));
    }
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph clique_chain(VertexId count, VertexId clique_size,
                   std::uint32_t path_len) {
  std::vector<Edge> edges;
  VertexId next_id = 0;
  std::vector<VertexId> entry(count), exit(count);
  for (VertexId c = 0; c < count; ++c) {
    const VertexId base = next_id;
    next_id += clique_size;
    entry[c] = base;
    exit[c] = base + clique_size - 1;
    for (VertexId i = 0; i < clique_size; ++i) {
      for (VertexId j = i + 1; j < clique_size; ++j) {
        edges.push_back(Edge{base + i, base + j});
      }
    }
  }
  for (VertexId c = 0; c + 1 < count; ++c) {
    VertexId prev = exit[c];
    for (std::uint32_t s = 1; s < path_len; ++s) {
      const VertexId mid = next_id++;
      edges.push_back(make_edge(prev, mid));
      prev = mid;
    }
    edges.push_back(make_edge(prev, entry[c + 1]));
  }
  return Graph::from_edges(next_id, std::move(edges));
}

}  // namespace ultra::graph
