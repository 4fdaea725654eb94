#include <gtest/gtest.h>

#include <algorithm>
#include <queue>

#include "graph/bfs.h"
#include "graph/distances.h"
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

TEST(Bfs, ShortestPathEndpointsAndLength) {
  const Graph g = cycle_graph(11);
  const auto p = shortest_path(g, 0, 4);
  ASSERT_EQ(p.size(), 5u);
  EXPECT_EQ(p.front(), 0u);
  EXPECT_EQ(p.back(), 4u);
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    EXPECT_TRUE(g.has_edge(p[i], p[i + 1]));
  }
}

TEST(Bfs, ShortestPathDisconnectedEmpty) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_TRUE(shortest_path(g, 0, 3).empty());
}

TEST(Bfs, BallContents) {
  const Graph g = path_graph(10);
  const auto b = ball(g, 5, 2);
  std::set<VertexId> s(b.begin(), b.end());
  EXPECT_EQ(s, (std::set<VertexId>{3, 4, 5, 6, 7}));
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
      EXPECT_EQ(ball(g, s, radius), want);
      bfs_reset(dist, order);
      EXPECT_TRUE(order.empty());
      EXPECT_TRUE(std::all_of(dist.begin(), dist.end(), [](std::uint32_t d) {
        return d == kUnreachable;
      }));
    }
  }
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

TEST(Diameter, DoubleSweepExactOnTrees) {
  util::Rng rng(9);
  const Graph t = random_tree(200, rng);
  EXPECT_EQ(double_sweep_diameter_lb(t), exact_diameter(t));
}

TEST(DistanceMatrix, MatchesBfs) {
  util::Rng rng(10);
  const Graph g = erdos_renyi_gnm(40, 70, rng);
  const DistanceMatrix m(g);
  for (VertexId u = 0; u < 40; u += 7) {
    const auto d = bfs_distances(g, u);
    for (VertexId v = 0; v < 40; ++v) EXPECT_EQ(m.at(u, v), d[v]);
  }
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
