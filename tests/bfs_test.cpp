#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/bfs.h"
#include "graph/generators.h"
#include "graph/girth.h"
#include "util/rng.h"

namespace ultra::graph {
namespace {

// Reference BFS for cross-checking.
std::vector<std::uint32_t> reference_bfs(const Graph& g, VertexId s) {
  std::vector<std::uint32_t> dist(g.num_vertices(), kUnreachable);
  std::queue<VertexId> q;
  dist[s] = 0;
  q.push(s);
  while (!q.empty()) {
    const VertexId v = q.front();
    q.pop();
    for (const VertexId w : g.neighbors(v)) {
      if (dist[w] == kUnreachable) {
        dist[w] = dist[v] + 1;
        q.push(w);
      }
    }
  }
  return dist;
}

TEST(Bfs, MatchesReferenceOnRandomGraphs) {
  util::Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = erdos_renyi_gnm(80, 160, rng);
    for (VertexId s = 0; s < 10; ++s) {
      EXPECT_EQ(bfs_distances(g, s), reference_bfs(g, s));
    }
  }
}

TEST(Bfs, ParentsFormShortestPathTree) {
  util::Rng rng(4);
  const Graph g = connected_gnm(60, 120, rng);
  const BfsResult r = bfs(g, 0);
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    ASSERT_NE(r.parent[v], kInvalidVertex);
    EXPECT_EQ(r.dist[v], r.dist[r.parent[v]] + 1);
    EXPECT_TRUE(g.has_edge(v, r.parent[v]));
  }
}

TEST(Bfs, TruncationStopsAtMaxDist) {
  const Graph g = path_graph(20);
  const auto d = bfs_distances(g, 0, 5);
  EXPECT_EQ(d[5], 5u);
  EXPECT_EQ(d[6], kUnreachable);
}

TEST(Bfs, KernelVisitsInQueueOrderAndResetsOnlyWhatItTouched) {
  // One pair of buffers serves many truncated searches: each must match a
  // fresh reference queue BFS — same set, same FIFO order, same distances —
  // and bfs_reset must leave dist all-unreachable again.
  util::Rng rng(8);
  const Graph g = erdos_renyi_gnm(120, 200, rng);  // several components
  std::vector<std::uint32_t> dist(g.num_vertices(), kUnreachable);
  std::vector<VertexId> order;
  for (VertexId s = 0; s < g.num_vertices(); s += 7) {
    for (const std::uint32_t radius : {0u, 2u, kUnreachable}) {
      bfs_visit(g, s, radius, dist, order);
      const auto ref = reference_bfs(g, s);
      std::vector<VertexId> want;
      std::queue<VertexId> q;
      std::vector<std::uint8_t> seen(g.num_vertices(), 0);
      q.push(s);
      seen[s] = 1;
      while (!q.empty()) {
        const VertexId v = q.front();
        q.pop();
        want.push_back(v);
        if (ref[v] >= radius) continue;
        for (const VertexId w : g.neighbors(v)) {
          if (!seen[w]) {
            seen[w] = 1;
            q.push(w);
          }
        }
      }
      EXPECT_EQ(order, want) << "s=" << s << " radius=" << radius;
      for (const VertexId v : order) EXPECT_EQ(dist[v], ref[v]);
      bfs_reset(dist, order);
      EXPECT_TRUE(order.empty());
      EXPECT_TRUE(std::all_of(dist.begin(), dist.end(), [](std::uint32_t d) {
        return d == kUnreachable;
      }));
    }
  }
}

// Every row of bfs_distance_rows against bfs_distances, over graphs with
// isolated vertices, several components and long paths, and source lists
// around the 64-source sweep boundary, unsorted and with repeats.
TEST(Bfs, DistanceRowsMatchSingleSource) {
  std::vector<std::pair<const char*, Graph>> graphs;
  {
    util::Rng rng(21);
    graphs.emplace_back("er", erdos_renyi_gnm(300, 700, rng));
    graphs.emplace_back("rmat", rmat_graph(256, 600, rng));
    const Graph& rmat = graphs.back().second;
    VertexId isolated = 0;
    for (VertexId v = 0; v < rmat.num_vertices(); ++v) {
      isolated += rmat.degree(v) == 0 ? 1 : 0;
    }
    EXPECT_GT(isolated, 0u) << "the R-MAT input should hold isolated vertices";
    // Two connected graphs side by side: a disjoint union.
    const Graph a = connected_gnm(90, 200, rng);
    const Graph b = connected_gnm(60, 150, rng);
    std::vector<Edge> both(a.edges().begin(), a.edges().end());
    for (const Edge& e : b.edges()) both.push_back({e.u + 90, e.v + 90});
    graphs.emplace_back("union", Graph::from_edges(150, both));
  }
  graphs.emplace_back("path", path_graph(200));
  std::vector<Edge> star;
  for (VertexId v = 1; v < 150; ++v) star.push_back({0, v});
  graphs.emplace_back("star", Graph::from_edges(150, star));
  graphs.emplace_back("empty", Graph::from_edges(0, {}));
  graphs.emplace_back("single", Graph::from_edges(1, {}));

  for (const auto& [name, g] : graphs) {
    const VertexId n = g.num_vertices();
    for (const std::size_t count : {0, 1, 63, 64, 65, 130}) {
      if (n == 0 && count > 0) continue;
      // Unsorted (a multiplicative hash of i); every seventh source repeats
      // the one before it, and more repeat once count exceeds n.
      std::vector<VertexId> sources(count);
      for (std::size_t i = 0; i < count; ++i) {
        sources[i] = static_cast<VertexId>(
            (i % 7 == 6 ? i - 1 : i) * 2654435761u % std::max<VertexId>(n, 1));
      }
      std::vector<std::uint32_t> rows(count * n, 0);
      bfs_distance_rows(g, sources, rows);
      for (std::size_t r = 0; r < count; ++r) {
        const auto want = bfs_distances(g, sources[r]);
        const std::vector<std::uint32_t> got(rows.begin() + r * n,
                                             rows.begin() + (r + 1) * n);
        EXPECT_EQ(got, want) << name << " count " << count << " row " << r
                             << " source " << sources[r];
      }
    }
  }
}

TEST(Bfs, DistanceRowsRejectOutOfRangeSource) {
  const Graph g = path_graph(10);
  const std::vector<VertexId> sources{3, 10};
  std::vector<std::uint32_t> rows(2 * 10);
  EXPECT_THROW(bfs_distance_rows(g, sources, rows), std::out_of_range);
  const Graph empty = Graph::from_edges(0, {});
  const std::vector<VertexId> zero{0};
  EXPECT_THROW(bfs_distance_rows(empty, zero, {}), std::out_of_range);
  std::vector<std::uint32_t> short_rows(2 * 10 - 1);
  const std::vector<VertexId> fine{3, 4};
  EXPECT_THROW(bfs_distance_rows(g, fine, short_rows), std::invalid_argument);
}

TEST(MultiSourceBfs, DistanceIsMinOverSources) {
  util::Rng rng(5);
  const Graph g = connected_gnm(70, 140, rng);
  const std::vector<VertexId> sources{3, 40, 66};
  const auto ms = multi_source_bfs(g, sources);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::uint32_t best = kUnreachable;
    for (const VertexId s : sources) {
      best = std::min(best, bfs_distances(g, s)[v]);
    }
    EXPECT_EQ(ms.dist[v], best);
  }
}

TEST(MultiSourceBfs, NearestIsMinIdAmongClosest) {
  util::Rng rng(6);
  const Graph g = connected_gnm(70, 150, rng);
  const std::vector<VertexId> sources{10, 20, 30, 40};
  const auto ms = multi_source_bfs(g, sources);
  std::vector<std::vector<std::uint32_t>> dist;
  for (const VertexId s : sources) dist.push_back(bfs_distances(g, s));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    VertexId expect = kInvalidVertex;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      if (dist[i][v] == ms.dist[v] && sources[i] < expect) {
        expect = sources[i];
      }
    }
    EXPECT_EQ(ms.nearest[v], expect) << "v=" << v;
  }
}

TEST(MultiSourceBfs, ParentChainsLeadToNearest) {
  util::Rng rng(7);
  const Graph g = connected_gnm(50, 100, rng);
  const std::vector<VertexId> sources{1, 25, 49};
  const auto ms = multi_source_bfs(g, sources);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    VertexId x = v;
    std::uint32_t steps = 0;
    while (ms.parent[x] != kInvalidVertex) {
      x = ms.parent[x];
      ++steps;
      ASSERT_LE(steps, g.num_vertices());
    }
    EXPECT_EQ(x, ms.nearest[v]);
    EXPECT_EQ(steps, ms.dist[v]);
  }
}

TEST(MultiSourceBfs, PathVerticesShareNearest) {
  // The Lemma 7 forest property: every vertex on P(v, p(v)) has the same p.
  util::Rng rng(8);
  const Graph g = connected_gnm(60, 130, rng);
  const std::vector<VertexId> sources{2, 30};
  const auto ms = multi_source_bfs(g, sources);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId x = v; ms.parent[x] != kInvalidVertex; x = ms.parent[x]) {
      EXPECT_EQ(ms.nearest[x], ms.nearest[v]);
    }
  }
}

TEST(MultiSourceBfs, RespectsTruncation) {
  const Graph g = path_graph(30);
  const std::vector<VertexId> sources{0};
  const auto ms = multi_source_bfs(g, sources, 4);
  EXPECT_EQ(ms.dist[4], 4u);
  EXPECT_EQ(ms.dist[5], kUnreachable);
  EXPECT_EQ(ms.nearest[5], kInvalidVertex);
}

TEST(Diameter, PathAndCycle) {
  EXPECT_EQ(exact_diameter(path_graph(17)), 16u);
  EXPECT_EQ(exact_diameter(cycle_graph(10)), 5u);
  EXPECT_EQ(exact_diameter(cycle_graph(11)), 5u);
  EXPECT_EQ(eccentricity(path_graph(17), 8), 8u);
}

// Disconnected input: the largest eccentricity over all vertices, so the
// path's 9, not the larger component's 1.
TEST(Diameter, LargestOverComponents) {
  const Graph clique = complete_graph(50);
  std::vector<Edge> edges(clique.edges().begin(), clique.edges().end());
  for (VertexId v = 1; v < 10; ++v) edges.push_back({49 + v, 50 + v});
  EXPECT_EQ(exact_diameter(Graph::from_edges(60, std::move(edges))), 9u);
}

TEST(Diameter, DoubleSweepExactOnTrees) {
  util::Rng rng(9);
  const Graph t = random_tree(200, rng);
  EXPECT_EQ(double_sweep_diameter_lb(t), exact_diameter(t));
}

TEST(Girth, KnownValues) {
  EXPECT_EQ(girth(cycle_graph(7)), 7u);
  EXPECT_EQ(girth(complete_graph(5)), 3u);
  EXPECT_EQ(girth(complete_bipartite(3, 3)), 4u);
  EXPECT_EQ(girth(path_graph(9)), kInfiniteGirth);
  EXPECT_EQ(girth(hypercube(4)), 4u);
  EXPECT_EQ(girth(grid_graph(4, 4)), 4u);
}

TEST(Girth, TwoDisjointCyclesTakesShorter) {
  GraphBuilder b;
  // Triangle 0-1-2, square 10-11-12-13.
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(10, 11);
  b.add_edge(11, 12);
  b.add_edge(12, 13);
  b.add_edge(13, 10);
  EXPECT_EQ(girth(std::move(b).build()), 3u);
}

}  // namespace
}  // namespace ultra::graph
